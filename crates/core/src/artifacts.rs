//! The session artifact store: what a mined statement leaves behind for
//! its reruns, one entry per statement fingerprint.
//!
//! The paper observes (§3) that "the same preprocessing could be in common
//! to the execution of several data mining queries"; *Interactive
//! Constrained Association Rule Mining* (Goethals & Van den Bussche) keeps
//! one session state per query — the inventory with what it was computed
//! from. An entry is keyed by the *canonical fingerprint* of the
//! preprocessing-relevant statement fragment ([`fingerprint`]: FROM list,
//! source/group/cluster conditions, grouping and clustering attributes,
//! mining condition, body/head descriptors — **not** the EXTRACTING
//! thresholds or the output table name) and holds two independently
//! replaceable halves, each letting a rerun skip one phase:
//!
//! * the **encoding** — every table (a deferred one as its unbuilt
//!   handle), view and sequence state preprocessing left, the core's
//!   input the fused pass built beside them and, for a statement without
//!   directives, the [`SourceDigest`] they were all derived from. It
//!   skips `Q0`..`Q11`, and the restored input spares the core the read
//!   back out of the tables. It is reinstated while the version stamp
//!   ([`relational::Table::version`]) of every FROM table still matches
//!   the live catalog — stamps are globally unique and change on every
//!   mutation, so drop-and-recreate can never resurrect one; a statement
//!   whose conditions read anything else keeps no encoding — and under a
//!   superset rule: `Q3`/`Q5`/`Q9` prune at `:mingroups`, so a
//!   reinstatement requires `min_groups_for(total_groups, new_support) >=
//!   min_groups`. The core operator re-filters at the current
//!   `:mingroups`, so warm runs mine bit-identical rules
//!   (`tests/cache_agreement.rs`); the reinstated tables keep the rows of
//!   the looser threshold they were pruned at. Where the rule refuses a
//!   reinstatement, the kept digest *re-derives* the encoding: at the
//!   same version for a looser support (`preprocess.cache.refine`), or
//!   after the source-table delta ([`relational::Table::changes_since`])
//!   was replayed onto it (`preprocess.cache.delta`) — no source row is
//!   read, and the tables, sequences and bindings are bit-identical to a
//!   cold run's. A delta the digest cannot replay in scan order, or an
//!   encoding without a digest (the stepwise program, a statement with
//!   directives), is a miss: the statement preprocesses cold.
//! * the **inventory** — every frequent itemset with its exact
//!   group-support over a [`SourceDigest`], for statements without
//!   directives ([`cacheable`]). It skips the core operator: a rerun with
//!   *tightened support* is answered by filtering (anti-monotonicity makes
//!   the filtered inventory the one a cold mine would produce, and rules
//!   are regenerated by the same
//!   [`crate::algo::rules_from_itemsets_counted`], so they are
//!   bit-identical); *any confidence change* is free, rules being
//!   re-derived from itemsets; *loosened support* is a clean miss; a
//!   *source-table delta* is re-mined incrementally in the FUP style —
//!   supports adjusted for the touched groups only, and since an itemset
//!   that *became* frequent must occur in at least `min_groups' −
//!   min_groups + 1` of the grown/new groups, only that small delta is
//!   mined for candidates, which are then counted exactly. A delta beyond
//!   the row budget, or crossing a TRUNCATE the table log does not
//!   replay, falls back to a full mine.
//!
//! Both halves hold one digest: a delta is replayed once per entry, in
//! place, when the encoding is re-derived, and the inventory's supports
//! are adjusted from that same replay. The inventory lives in the
//! digest's value space, so it survives re-encoding; a warm serve maps
//! items onto the current `Bid`s right before rule generation. When the
//! encoding cannot be re-derived and the statement preprocesses cold,
//! the inventory replays the delta onto its own digest at serve time.
//! The pipeline performs four operations, in order:
//! [`ArtifactStore::restore_encoding`] or, after a cold preprocess or a
//! re-derivation, [`ArtifactStore::capture_encoding`]; then
//! [`ArtifactStore::serve_rules`] or, after a cold mine,
//! [`ArtifactStore::capture_inventory`].

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};

use relational::catalog::{TableEntry, View};
use relational::expr::eval::QueryCtx;
use relational::expr::Expr;
use relational::sequence::Sequence;
use relational::{Database, Table, TableDelta, Value};

use crate::algo::{rules_from_itemsets_counted, EncodedRules, LargeItemset};
use crate::ast::MineRuleStatement;
use crate::digest::SourceDigest;
use crate::directives::Directives;
use crate::error::Result;
use crate::preprocess::{
    derive_encoding, float_attribute_with_ints, min_groups_for, run_steps, scan_source,
    source_columns, Handover, PreprocessReport, Preprocessed, SourceColumns,
};
use crate::translator::Translation;

/// Most-recently-used entries the store keeps; older ones are evicted.
const MAX_ENTRIES: usize = 8;

/// Delta re-mining budget: a delta with more rows than
/// `max(BUDGET_MIN_ROWS, cached rows / 4)` falls back to a full mine.
const BUDGET_MIN_ROWS: usize = 64;

/// Candidate cap for the delta miner: enumerating more than this many
/// delta-frequent itemsets aborts incremental re-mining (full mine).
const MAX_DELTA_CANDIDATES: usize = 4096;

/// Everything preprocessing materialised, plus the validity conditions
/// for reinstating it.
#[derive(Debug, Clone)]
struct Encoding {
    /// `(lowercase table name, version)` of every FROM table at capture.
    table_versions: Vec<(String, u64)>,
    /// `:totg` at capture.
    total_groups: u64,
    /// The `:mingroups` the tables were pruned at (superset rule).
    min_groups: u64,
    /// Every table as the catalog held it: a deferred one keeps its
    /// producer and is registered again unbuilt.
    tables: Vec<TableEntry>,
    views: Vec<View>,
    /// `(name, next, increment)` of the id sequences at capture.
    sequences: Vec<(String, i64, i64)>,
    /// The core's input the fused pass handed over beside the tables;
    /// `None` after the stepwise program.
    input: Option<Handover>,
    /// The source digest the encoding was derived from (a statement
    /// without directives on the production paths), shared with the
    /// tables' producers, the input and — until something replaces one of
    /// them — the inventory: a rerun re-derives the encoding from it.
    digest: Option<Arc<SourceDigest>>,
    /// What the tables, views and input retain; the digest is counted
    /// apart (`State::retained`), once per entry.
    bytes: u64,
}

/// A frequent itemset: sorted digest item ids plus its exact
/// group-support.
#[derive(Debug, Clone, PartialEq)]
struct CachedItemset {
    items: Vec<u32>,
    count: u32,
}

/// A mined result with its validity conditions. The source version it
/// answers for is its digest's.
#[derive(Debug)]
struct Inventory {
    /// The itemsets are complete down to this absolute threshold.
    min_groups: u64,
    /// EXTRACTING thresholds at capture, to tell refines from reruns.
    capture_support: f64,
    capture_confidence: f64,
    /// Shared with the preprocess report it came from and the encoding
    /// derived from it; a delta replay copies it only while someone else
    /// still holds it.
    digest: Arc<SourceDigest>,
    itemsets: Vec<CachedItemset>,
    /// The digest version of the inventory's last answer (its capture
    /// counts as one). A serve answering at a newer one reports the delta
    /// even when the re-derived encoding already replayed it.
    answered: u64,
    bytes: u64,
}

impl Inventory {
    /// Rough retained size, for the bytes gauge.
    fn approx_bytes(&self) -> u64 {
        let itemsets: u64 = self
            .itemsets
            .iter()
            .map(|c| 32 + c.items.len() as u64 * 4)
            .sum();
        self.digest.approx_bytes() + itemsets + 256
    }
}

/// What the session keeps for one statement fingerprint.
#[derive(Debug)]
struct Entry {
    fingerprint: String,
    encoding: Option<Encoding>,
    inventory: Option<Inventory>,
}

#[derive(Debug, Default)]
struct State {
    /// LRU order: least-recently used first.
    entries: Vec<Entry>,
}

impl State {
    /// The statement's entry, moved to the most-recently-used end.
    fn touch(&mut self, fingerprint: &str) -> Option<&mut Entry> {
        let at = self
            .entries
            .iter()
            .position(|e| e.fingerprint == fingerprint)?;
        let entry = self.entries.remove(at);
        self.entries.push(entry);
        self.entries.last_mut()
    }

    /// Let `set` replace one half of the statement's entry — touched, or
    /// created at the most-recently-used end — then evict beyond
    /// [`MAX_ENTRIES`]. The other half stays as it is.
    fn put(&mut self, fingerprint: String, set: impl FnOnce(&mut Entry)) -> StoreOutcome {
        if self.touch(&fingerprint).is_none() {
            self.entries.push(Entry {
                fingerprint,
                encoding: None,
                inventory: None,
            });
        }
        set(self.entries.last_mut().expect("touched or pushed above"));
        let mut outcome = StoreOutcome::default();
        while self.entries.len() > MAX_ENTRIES {
            let evicted = self.entries.remove(0);
            outcome.evicted_encodings += evicted.encoding.is_some() as u64;
            outcome.evicted_inventories += evicted.inventory.is_some() as u64;
        }
        self.retained(outcome)
    }

    /// `outcome` with the bytes each half retains right now. An
    /// encoding's digest holds the scan's `(group, item)` pairs; it is
    /// counted with the inventory when that holds the same one, with the
    /// encoding otherwise.
    fn retained(&self, outcome: StoreOutcome) -> StoreOutcome {
        let (mut encoding_bytes, mut inventory_bytes) = (0, 0);
        for entry in &self.entries {
            let inventory = entry.inventory.as_ref();
            inventory_bytes += inventory.map_or(0, |i| i.bytes);
            let Some(encoding) = &entry.encoding else {
                continue;
            };
            let shared =
                |d: &&Arc<SourceDigest>| inventory.is_some_and(|i| Arc::ptr_eq(&i.digest, d));
            let digest = encoding.digest.as_ref().filter(|d| !shared(d));
            encoding_bytes += encoding.bytes + digest.map_or(0, |d| d.approx_bytes());
        }
        StoreOutcome {
            encoding_bytes,
            inventory_bytes,
            ..outcome
        }
    }
}

/// What a capture did to the store, for telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreOutcome {
    /// Halves lost to eviction: one evicted entry counts once for each
    /// half it held.
    pub evicted_encodings: u64,
    pub evicted_inventories: u64,
    /// Approximate bytes each half retains after the capture.
    pub encoding_bytes: u64,
    pub inventory_bytes: u64,
    /// Source-table rows the capture itself had to read (an inventory
    /// capture reads the source only when no fused pass handed it a
    /// digest; an encoding capture shares the catalog's tables).
    pub source_rows: u64,
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
    pub rules: EncodedRules,
    pub kind: ServeKind,
}

/// The session artifact store. Clones share the same entries (like
/// [`crate::telemetry::Telemetry`]), so engine clones reuse each other's
/// work. A disabled store never serves and never retains anything.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    inner: Option<Arc<Mutex<State>>>,
}

impl ArtifactStore {
    /// An empty store; with `enabled` false, one that never serves and
    /// never captures.
    pub fn new(enabled: bool) -> ArtifactStore {
        ArtifactStore {
            inner: enabled.then(|| Arc::new(Mutex::new(State::default()))),
        }
    }

    /// Whether the four operations do anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The entries under their lock; `None` when the store is disabled.
    fn lock(&self) -> Option<MutexGuard<'_, State>> {
        let inner = self.inner.as_ref()?;
        Some(inner.lock().expect("no store operation panics mid-update"))
    }

    /// Try to skip preprocessing. On a hit the statement's cleanup
    /// program runs (exactly as a cold run would), the captured tables,
    /// views and sequences are reinstated and `:totg` / `:mingroups` are
    /// set for the *current* support threshold; the captured input is
    /// handed over beside the report, which stamps it with that
    /// `:mingroups` ([`Preprocessed::encoded_input`]). That is
    /// [`ServeKind::Hit`] — also at a tighter support, whose `:mingroups`
    /// the superset rule admits. When the kept encoding cannot be
    /// reinstated but its source digest can re-derive it
    /// (`ArtifactStore::rederive`), the kind says why: [`ServeKind::Refine`]
    /// for a looser support at the same source version,
    /// [`ServeKind::Delta`] for a replayed source delta.
    ///
    /// `None` is a miss: the caller preprocesses cold. A miss found before
    /// the cleanup leaves the database untouched; a catalog that refuses
    /// one of the objects (a user object took its name) is a miss too,
    /// and the cold run — which starts with the same cleanup — decides
    /// the statement's error and its catalog.
    pub fn restore_encoding(
        &self,
        db: &mut Database,
        translation: &Translation,
        prefix: &str,
    ) -> Result<Option<(Preprocessed, ServeKind)>> {
        let stmt = &translation.stmt;
        let Some(versions) = source_versions(db, stmt) else {
            return Ok(None);
        };
        let fingerprint = fingerprint(stmt, prefix);
        let Some(mut state) = self.lock() else {
            return Ok(None);
        };
        let Some(encoding) = state.touch(&fingerprint).and_then(|e| e.encoding.as_ref()) else {
            return Ok(None);
        };
        if encoding.table_versions != versions
            || min_groups_for(encoding.total_groups, stmt.min_support) < encoding.min_groups
        {
            drop(state);
            return self.rederive(db, translation, &fingerprint);
        }
        let encoding = encoding.clone();
        drop(state);

        // Restored tables keep their capture-time version stamps: each
        // holds exactly the rows it was captured with, and a deferred one
        // is registered unbuilt again.
        run_steps(db, &translation.cleanup, stmt.min_support)?;
        let catalog = db.catalog_mut();
        let reinstated = (|| {
            for table in encoding.tables {
                catalog.create_entry(table)?;
            }
            for view in encoding.views {
                catalog.create_view(view)?;
            }
            for (name, next, increment) in encoding.sequences {
                catalog.create_sequence(Sequence::new(name, next, increment))?;
            }
            relational::Result::Ok(())
        })();
        if reinstated.is_err() {
            return Ok(None);
        }
        let min_groups = min_groups_for(encoding.total_groups, stmt.min_support);
        db.set_var("totg", Value::Int(encoding.total_groups as i64));
        db.set_var("mingroups", Value::Int(min_groups as i64));
        let report = PreprocessReport {
            executed: Vec::new(),
            total_groups: encoding.total_groups,
            min_groups,
            ..PreprocessReport::default()
        };
        let run = Preprocessed {
            report,
            input: encoding.input,
        };
        Ok(Some((run, ServeKind::Hit)))
    }

    /// Re-derive a statement's encoding from the source digest its stale
    /// encoding was derived from, instead of scanning the source: at the
    /// same version when the support loosened (the kept tables were
    /// pruned at a higher `:mingroups`), or after replaying the
    /// source-table delta onto it — within the delta budget, on the
    /// production paths, appended rows only. The replay runs once per
    /// entry, in place: the stale encoding and the cleanup's tables are
    /// dropped first, and an inventory holding the same digest has its
    /// supports adjusted from that one replay (its next serve, answering
    /// at a newer version than its last, reports the delta). Whatever declines — a delta the table's log cannot give or
    /// the budget refuses, an UPDATE, an INT stored into a FLOAT attribute,
    /// a replay that loses the scan order, a catalog that refuses a name —
    /// is a miss: the cold pass follows. An inventory the replay already
    /// adjusted keeps that; one on another digest replays the delta
    /// itself when it serves.
    fn rederive(
        &self,
        db: &mut Database,
        translation: &Translation,
        fingerprint: &str,
    ) -> Result<Option<(Preprocessed, ServeKind)>> {
        let stmt = &translation.stmt;
        let Some(table) = source_table(db, stmt) else {
            return Ok(None);
        };
        let Some(mut state) = self.lock() else {
            return Ok(None);
        };
        let Some(entry) = state.touch(fingerprint) else {
            return Ok(None);
        };
        let digest = entry.encoding.as_ref().and_then(|e| e.digest.as_ref());
        let (false, Some(digest)) = (db.reference_paths(), digest.filter(|d| d.ordered())) else {
            return Ok(None);
        };
        let delta = if digest.version() == table.version() {
            None
        } else {
            let Some(delta) = replayable(table, digest) else {
                return Ok(None);
            };
            let floats = float_attribute_with_ints(table.schema(), stmt, &delta.inserted);
            if delta.replaced || !matches!(floats, Ok(None)) {
                return Ok(None);
            }
            Some(delta)
        };
        let Ok(cols) = source_columns(table, stmt) else {
            return Ok(None);
        };
        let version = table.version();
        let mut digest = Arc::clone(digest);
        // The stale encoding can never serve again: dropping it (and the
        // cleanup's tables below) leaves the digest to the inventory.
        entry.encoding = None;
        let shares = |i: &Inventory| Arc::ptr_eq(&i.digest, &digest);
        let mut inventory = match &delta {
            Some(_) if entry.inventory.as_ref().is_some_and(shares) => entry.inventory.take(),
            _ => None,
        };
        drop(state);
        run_steps(db, &translation.cleanup, stmt.min_support)?;

        let kind = match delta {
            None => ServeKind::Refine,
            Some(delta) => {
                let before = match &mut inventory {
                    Some(inventory) => {
                        drop(digest);
                        let before = replay(&mut inventory.digest, &delta, version, &cols);
                        digest = Arc::clone(&inventory.digest);
                        before
                    }
                    None => replay(&mut digest, &delta, version, &cols),
                };
                // A torn replay: neither half can use the digest.
                let Some(before) = before else {
                    return Ok(None);
                };
                if let Some(adjusted) = &mut inventory {
                    if adjust(adjusted, before, stmt).is_none() {
                        inventory = None;
                    }
                }
                if let Some(inventory) = inventory {
                    if let Some(entry) = self.lock().as_mut().and_then(|s| s.touch(fingerprint)) {
                        entry.inventory = Some(inventory);
                    }
                }
                ServeKind::Delta
            }
        };
        if !digest.ordered() {
            return Ok(None);
        }
        match derive_encoding(db, translation, digest) {
            Ok(run) => Ok(Some((run, kind))),
            Err(_) => {
                run_steps(db, &translation.cleanup, stmt.min_support)?;
                Ok(None)
            }
        }
    }

    /// Capture what a preprocessing run just materialised, replacing the
    /// entry's encoding half (its versions or threshold can never become
    /// valid again once superseded). An inventory at an older source
    /// version stays: the serve that follows replays the delta onto it.
    pub fn capture_encoding(
        &self,
        db: &Database,
        translation: &Translation,
        prefix: &str,
        run: &Preprocessed,
    ) -> StoreOutcome {
        let stmt = &translation.stmt;
        let (true, Some(table_versions)) = (self.is_enabled(), source_versions(db, stmt)) else {
            return StoreOutcome::default();
        };
        let names = &translation.names;
        let catalog = db.catalog();
        let mut tables = Vec::new();
        for name in [
            names.source(),
            names.valid_groups(),
            names.distinct_groups_in_body(),
            names.distinct_groups_in_head(),
            names.bset(),
            names.hset(),
            names.clusters(),
            names.cluster_couples(),
            names.mining_source(),
            names.coded_source(),
            names.input_rules_raw(),
            names.large_rules(),
            names.input_rules(),
        ] {
            if let Ok(table) = catalog.entry(&name) {
                tables.push(table.clone());
            }
        }
        let mut views = Vec::new();
        for name in [names.valid_groups_view(), names.coded_source()] {
            if let Some(view) = catalog.view(&name) {
                views.push(view.clone());
            }
        }
        let seq_names = [
            names.gid_sequence().to_ascii_lowercase(),
            names.bid_sequence().to_ascii_lowercase(),
            names.hid_sequence().to_ascii_lowercase(),
            names.cid_sequence().to_ascii_lowercase(),
        ];
        let sequences: Vec<(String, i64, i64)> = catalog
            .sequence_states()
            .into_iter()
            .filter(|(name, _, _)| seq_names.contains(&name.to_ascii_lowercase()))
            .collect();
        // Rough retained size: a built table at its per-row cost, a
        // deferred one at what its producer keeps.
        let input = run.input.clone();
        let bytes = tables.iter().map(TableEntry::approx_bytes).sum::<u64>()
            + input.as_ref().map_or(0, |i| i.approx_bytes());
        let encoding = Encoding {
            table_versions,
            total_groups: run.report.total_groups,
            min_groups: run.report.min_groups,
            tables,
            views,
            sequences,
            input,
            digest: run.report.digest.clone(),
            bytes,
        };
        let mut state = self.lock().expect("enabled: checked above");
        state.put(fingerprint(stmt, prefix), |e| e.encoding = Some(encoding))
    }

    /// Try to answer the core-operator phase. Runs after preprocessing
    /// (cold or restored); on a hit the caller skips the core operator
    /// entirely and feeds the returned rules straight into the
    /// postprocessor. `None` means the caller must mine (and should then
    /// [`ArtifactStore::capture_inventory`]).
    pub fn serve_rules(
        &self,
        db: &Database,
        translation: &Translation,
        prefix: &str,
        report: &PreprocessReport,
    ) -> Result<Option<ServeOutcome>> {
        if !cacheable(translation) {
            return Ok(None);
        }
        let Some(table) = source_table(db, &translation.stmt) else {
            return Ok(None);
        };
        let fingerprint = fingerprint(&translation.stmt, prefix);
        // The serve works on the inventory itself, outside the lock:
        // nothing is copied, and a delta rewrites only the groups it
        // touches.
        let taken = self
            .lock()
            .and_then(|mut state| state.touch(&fingerprint)?.inventory.take());
        let Some(mut inventory) = taken else {
            return Ok(None);
        };
        let stale = inventory.digest.version() != table.version();
        let served = serve(&mut inventory, db, table, translation, report)?;
        // A delta replay that did not end in a serve leaves the inventory
        // half-updated: only that half is dropped, the full mine that
        // follows recaptures it.
        if served.is_some() || !stale {
            if let Some(entry) = self.lock().as_mut().and_then(|s| s.touch(&fingerprint)) {
                entry.inventory = Some(inventory);
            }
        }
        Ok(served)
    }

    /// Capture a cold mine's inventory, replacing the entry's inventory
    /// half. `large` is the simple-path large-itemset inventory the core
    /// operator just produced, with its exact supports. The grouped
    /// source comes from the digest the fused pass left on `report`;
    /// failing that from the inventory being replaced when it is already
    /// at the table's version (a loosened-support recapture); only failing
    /// both is the source scanned here. Statements the store cannot replay
    /// are skipped.
    pub fn capture_inventory(
        &self,
        db: &Database,
        translation: &Translation,
        prefix: &str,
        report: &PreprocessReport,
        large: &[LargeItemset],
    ) -> StoreOutcome {
        let Some(state) = self.lock() else {
            return StoreOutcome::default();
        };
        // Skipped captures still report the retained totals, so the bytes
        // gauge never zeroes out under an uncacheable statement.
        let mut outcome = state.retained(StoreOutcome::default());
        let stmt = &translation.stmt;
        let table = match source_table(db, stmt) {
            Some(table) if cacheable(translation) && report.total_groups > 0 => table,
            _ => return outcome,
        };
        let fingerprint = fingerprint(stmt, prefix);
        let current = |d: &Arc<SourceDigest>| d.version() == table.version();
        let digest = report.digest.clone().filter(current).or_else(|| {
            let entry = state.entries.iter().find(|e| e.fingerprint == fingerprint);
            let replaced = entry.and_then(|e| e.inventory.as_ref());
            replaced.map(|i| i.digest.clone()).filter(current)
        });
        drop(state);
        let digest = match digest {
            Some(digest) => digest,
            None => {
                let Ok(scan) = scan_source(db, stmt) else {
                    return outcome;
                };
                outcome.source_rows = scan.rows;
                match scan.into_digest() {
                    Some(digest) => Arc::new(digest),
                    None => return outcome,
                }
            }
        };
        // The SQL preprocessor must agree on the group universe.
        if digest.live_groups() != report.total_groups {
            return outcome;
        }
        let Some(itemsets) = digest_itemsets(db, translation, &digest, large) else {
            return outcome;
        };
        let mut inventory = Inventory {
            min_groups: report.min_groups,
            capture_support: stmt.min_support,
            capture_confidence: stmt.min_confidence,
            answered: digest.version(),
            digest,
            itemsets,
            bytes: 0,
        };
        inventory.bytes = inventory.approx_bytes();
        let mut state = self.lock().expect("enabled: locked above");
        StoreOutcome {
            source_rows: outcome.source_rows,
            ..state.put(fingerprint, |e| e.inventory = Some(inventory))
        }
    }
}

/// The canonical fingerprint of the preprocessing-relevant fragment of a
/// statement. Two statements with equal fingerprints generate the same
/// preprocessing program over the same source; the EXTRACTING thresholds
/// and the output table name are deliberately excluded.
pub fn fingerprint(stmt: &MineRuleStatement, prefix: &str) -> String {
    fn cond(e: &Option<Expr>) -> String {
        e.as_ref().map(|x| x.to_string()).unwrap_or_default()
    }
    let from: Vec<String> = stmt
        .from
        .iter()
        .map(|t| format!("{}:{}", t.name.to_ascii_lowercase(), t.visible_name()))
        .collect();
    format!(
        "prefix={prefix}|from={}|where={}|group={}|having={}|cluster={}|cluster_having={}|mining={}|body={} {}|head={} {}",
        from.join(","),
        cond(&stmt.source_cond),
        stmt.group_by.join(","),
        cond(&stmt.group_cond),
        stmt.cluster_by.join(","),
        cond(&stmt.cluster_cond),
        cond(&stmt.mining_cond),
        stmt.body.card,
        stmt.body.schema.join(","),
        stmt.head.card,
        stmt.head.schema.join(","),
    )
}

/// Current `(lowercase name, version)` of every FROM table, or `None` when
/// a source table is missing from the catalog or a condition reads
/// anything else ([`MineRuleStatement::reads_only_from_tables`]): those
/// versions would not say whether a kept encoding is still the answer.
fn source_versions(db: &Database, stmt: &MineRuleStatement) -> Option<Vec<(String, u64)>> {
    if !stmt.reads_only_from_tables() {
        return None;
    }
    let mut versions = Vec::with_capacity(stmt.from.len());
    for source in &stmt.from {
        let table = db.catalog().table(&source.name).ok()?;
        versions.push((source.name.to_ascii_lowercase(), table.version()));
    }
    Some(versions)
}

/// Whether the store can hold an inventory for the statement: no
/// directive set — a simple statement reading one base table whole (no W,
/// so no join and no source condition) with every group valid (no G).
/// Those are the statements whose source scan builds a [`SourceDigest`].
pub fn cacheable(translation: &Translation) -> bool {
    translation.directives == Directives::default()
}

/// The statement's one FROM table ([`cacheable`] statements have no other).
fn source_table<'a>(db: &'a Database, stmt: &MineRuleStatement) -> Option<&'a Table> {
    db.catalog().table(&stmt.from[0].name).ok()
}

/// Answer the statement from `inventory`, bringing it up to the table's
/// version first when the source moved. `None` is a miss; the inventory
/// is then intact unless a delta replay had begun (its digest was stale).
fn serve(
    inventory: &mut Inventory,
    db: &Database,
    table: &Table,
    translation: &Translation,
    report: &PreprocessReport,
) -> Result<Option<ServeOutcome>> {
    let stmt = &translation.stmt;
    let kind = if inventory.digest.version() == table.version() {
        if min_groups_for(inventory.digest.live_groups(), stmt.min_support) < inventory.min_groups {
            return Ok(None); // loosened support: the inventory is incomplete there
        }
        if inventory.answered != table.version() {
            ServeKind::Delta // replayed when the encoding was re-derived
        } else if stmt.min_support == inventory.capture_support
            && stmt.min_confidence == inventory.capture_confidence
        {
            ServeKind::Hit
        } else {
            ServeKind::Refine
        }
    } else {
        if apply_delta(inventory, table, stmt).is_none() {
            return Ok(None);
        }
        ServeKind::Delta
    };
    // The SQL preprocessor must agree on the group universe; any
    // divergence (or a run that bypassed preprocessing) is a miss.
    let total_groups = inventory.digest.live_groups();
    if report.total_groups != total_groups {
        return Ok(None);
    }
    let new_min = min_groups_for(total_groups, stmt.min_support);
    let rules = match extract_rules(db, inventory, translation, new_min)? {
        Some(rules) => rules,
        None => return Ok(None),
    };
    inventory.capture_support = stmt.min_support;
    inventory.capture_confidence = stmt.min_confidence;
    inventory.answered = table.version();
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
                let item = digest.item_id(row, &item_cols)?;
                Some((*bid as u32, item))
            }
            _ => None,
        })
        .collect()
}

/// The miner's bid-space inventory in the digest's item-id space, counts
/// taken as mined.
fn digest_itemsets(
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

/// The table's delta since the digest's version, when its log can give
/// it and it is within the re-mining budget: at most
/// `max(BUDGET_MIN_ROWS, digest rows / 4)` rows.
fn replayable(table: &Table, digest: &SourceDigest) -> Option<TableDelta> {
    let delta = table.changes_since(digest.version())?;
    let budget = (digest.rows() as usize / 4).max(BUDGET_MIN_ROWS);
    (delta.row_count() <= budget).then_some(delta)
}

/// Replay `delta` onto the digest, bringing it to `version` —
/// copy-on-write: in place unless someone else still holds it. Returns
/// the touched groups' item sets before it (see `SourceDigest::apply`).
fn replay(
    digest: &mut Arc<SourceDigest>,
    delta: &TableDelta,
    version: u64,
    cols: &SourceColumns,
) -> Option<BTreeMap<u32, Vec<u32>>> {
    Arc::make_mut(digest).apply(delta, version, &cols.group, &cols.body)
}

/// Replay the source-table delta onto the inventory's digest, then
/// [`adjust`] its supports. `None` whenever incremental re-mining is
/// unsound or over budget — the caller falls back to a full mine and
/// drops the (possibly torn) inventory.
fn apply_delta(inventory: &mut Inventory, table: &Table, stmt: &MineRuleStatement) -> Option<()> {
    let delta = replayable(table, &inventory.digest)?;
    let cols = source_columns(table, stmt).ok()?;
    let before = replay(&mut inventory.digest, &delta, table.version(), &cols)?;
    adjust(inventory, before, stmt)
}

/// Bring the inventory's supports up to its digest, a delta having just
/// been replayed onto it: adjust every itemset by its containment in the
/// touched groups (`before`: their item sets before the delta) before
/// and now, mine the grown/new groups for borderline candidates and
/// count them exactly, then keep exactly the itemsets frequent at the
/// statement's new `:mingroups`. `None` when that is unsound (the
/// threshold loosened) or the candidates blow up.
fn adjust(
    inventory: &mut Inventory,
    before: BTreeMap<u32, Vec<u32>>,
    stmt: &MineRuleStatement,
) -> Option<()> {
    let digest = &inventory.digest;

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
    if new_min < inventory.min_groups {
        // The effective threshold loosened (mass deletes): itemsets below
        // the cached pruning line are unknown. Full mine.
        return None;
    }

    for cached in &mut inventory.itemsets {
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
    let t = (new_min - inventory.min_groups + 1) as usize;
    let mut candidates = mine_delta_candidates(&grown, t)?; // None: blow-up, full mine
    {
        let known: HashSet<&[u32]> = inventory.itemsets.iter().map(|c| &c.items[..]).collect();
        candidates.retain(|c| !known.contains(&c[..]));
    }
    if !candidates.is_empty() {
        // Exact counts over all live groups, through an inverted index
        // restricted to the candidates' items.
        let mut wanted = vec![false; digest.items()];
        for &item in candidates.iter().flatten() {
            wanted[item as usize] = true;
        }
        let mut item_slots: HashMap<u32, Vec<u32>> = HashMap::new();
        for slot in 0..digest.slots() {
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
            inventory.itemsets.push(CachedItemset {
                items,
                count: slots.len() as u32,
            });
        }
    }

    // Keep exactly the frequent set at the new threshold: the inventory
    // is complete there (adjusted counts + verified candidates).
    inventory.itemsets.retain(|c| c.count as u64 >= new_min);
    inventory.min_groups = new_min;
    inventory.bytes = inventory.approx_bytes();
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
    inventory: &Inventory,
    translation: &Translation,
    new_min: u64,
) -> Result<Option<EncodedRules>> {
    let stmt = &translation.stmt;
    let mut bid_of: Vec<Option<u32>> = vec![None; inventory.digest.items()];
    match bset_items(db, translation, &inventory.digest) {
        Some(pairs) => {
            for (bid, item) in pairs {
                bid_of[item as usize] = Some(bid);
            }
        }
        None => return Ok(None),
    }
    let mut large: Vec<LargeItemset> = Vec::new();
    for cached in &inventory.itemsets {
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
    let (rules, _) = rules_from_itemsets_counted(
        &large,
        inventory.digest.live_groups() as u32,
        stmt.body.card,
        stmt.head.card,
        stmt.min_confidence,
    )?;
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
    use crate::postprocess::{postprocess, read_rules, store_encoded_rules, DecodedRule};
    use crate::preprocess::{preprocess, preprocess_for_core};
    use crate::translator::translate;

    fn stmt_text(support: f64, confidence: f64, output: &str) -> String {
        format!(
            "MINE RULE {output} AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY tr \
             EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: {confidence}"
        )
    }

    fn translated(db: &Database, text: &str) -> Translation {
        translate(&parse_mine_rule(text).unwrap(), db.catalog()).unwrap()
    }

    /// Rules of a cold mine (store off) on a freshly built database with
    /// the given extra SQL applied first.
    fn cold_reference(mutations: &[&str], text: &str) -> Vec<DecodedRule> {
        let mut db = purchase_db();
        for sql in mutations {
            db.execute(sql).unwrap();
        }
        MineRuleEngine::new()
            .with_cache(false)
            .execute(&mut db, text)
            .unwrap()
            .rules
    }

    // ---- the encoding half, driven at store level -----------------------

    /// Preprocess `text` cold and capture its encoding.
    fn capture_cold_encoding(
        db: &mut Database,
        store: &ArtifactStore,
        text: &str,
        prefix: &str,
    ) -> (PreprocessReport, StoreOutcome) {
        let translation = translated(db, text);
        let run = preprocess_for_core(db, &translation).unwrap();
        let stored = store.capture_encoding(db, &translation, prefix, &run);
        (run.report, stored)
    }

    fn restore(db: &mut Database, store: &ArtifactStore, text: &str) -> Option<PreprocessReport> {
        restore_kind(db, store, text).map(|(report, _)| report)
    }

    fn restore_kind(
        db: &mut Database,
        store: &ArtifactStore,
        text: &str,
    ) -> Option<(PreprocessReport, ServeKind)> {
        let translation = translated(db, text);
        let restored = store.restore_encoding(db, &translation, "").unwrap();
        restored.map(|(run, kind)| (run.report, kind))
    }

    /// Every encoded table the statement's preprocessing left, as stored.
    fn encoded_tables(db: &Database, text: &str) -> Vec<String> {
        let names = &translated(db, text).names;
        [names.valid_groups(), names.bset(), names.coded_source()]
            .iter()
            .map(|name| format!("{name}: {:?}", db.catalog().table(name).unwrap().rows()))
            .collect()
    }

    #[test]
    fn fingerprint_ignores_thresholds_and_output_table() {
        let a = parse_mine_rule(&stmt_text(0.25, 0.1, "R1")).unwrap();
        let b = parse_mine_rule(&stmt_text(0.75, 0.4, "R2")).unwrap();
        assert_eq!(fingerprint(&a, ""), fingerprint(&b, ""));
        // But the source fragment matters.
        let c = parse_mine_rule(
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.1",
        )
        .unwrap();
        assert_ne!(fingerprint(&a, ""), fingerprint(&c, ""));
        // And so does the table prefix (artifacts live at prefixed names).
        assert_ne!(fingerprint(&a, ""), fingerprint(&a, "x_"));
    }

    #[test]
    fn warm_hit_restores_artifacts_and_recomputes_mingroups() {
        let store = ArtifactStore::new(true);
        let mut db = purchase_db();
        let (report, _) = capture_cold_encoding(&mut db, &store, &stmt_text(0.25, 0.1, "R"), "");
        assert_eq!(store.lock().unwrap().entries.len(), 1);

        // Refine the support threshold upwards: superset rule admits it.
        let (warm, kind) = restore_kind(&mut db, &store, &stmt_text(0.5, 0.1, "R"))
            .expect("refined threshold should hit");
        assert_eq!(kind, ServeKind::Hit, "reinstated, not re-derived");
        assert!(warm.executed.is_empty(), "no Qi steps on a warm run");
        assert_eq!(warm.total_groups, report.total_groups);
        assert_eq!(warm.min_groups, min_groups_for(report.total_groups, 0.5));
        // The encoded tables are back and consistent.
        let names = &translated(&db, &stmt_text(0.5, 0.1, "R")).names;
        assert!(db.catalog().has_table(&names.bset()));
        assert_eq!(
            db.var("totg"),
            Some(&Value::Int(report.total_groups as i64))
        );
    }

    #[test]
    fn encoding_bytes_count_deferred_handles_and_built_rows_at_their_cost() {
        let text = stmt_text(0.25, 0.1, "R");
        let mut db = purchase_db();
        let translation = translated(&db, &text);
        let run = preprocess_for_core(&mut db, &translation).unwrap();
        let coded = translation.names.coded_source();
        let Ok(TableEntry::Deferred(handle)) = db.catalog().entry(&coded) else {
            panic!("the fused pass defers CodedSource");
        };
        let (rows, kept) = (handle.row_count() as u64, handle.approx_bytes());
        let store = ArtifactStore::new(true);
        let unbuilt = store.capture_encoding(&db, &translation, "", &run);

        // Once read, the table counts at its per-row cost: a `Vec` header,
        // its heap block and two values per row.
        let built = db.catalog().table(&coded).unwrap().approx_bytes();
        assert_eq!(built, 64 + rows * (24 + 16 + 2 * 24));
        assert!(kept < built, "the handle keeps less than the rows take");
        let read = store.capture_encoding(&db, &translation, "", &run);
        assert_eq!(read.encoding_bytes - unbuilt.encoding_bytes, built);
    }

    /// A looser threshold needs items the captured tables pruned, so they
    /// are not reinstated. On the production paths
    /// the kept digest re-derives the encoding at the new `:mingroups`
    /// instead; the stepwise program keeps no digest, so there it is a
    /// miss.
    #[test]
    fn lower_threshold_misses_by_superset_rule() {
        let (tight, loose) = (stmt_text(0.5, 0.1, "R"), stmt_text(0.25, 0.1, "R"));
        for reference_paths in [false, true] {
            let store = ArtifactStore::new(true);
            let mut db = purchase_db();
            db.set_reference_paths(reference_paths);
            capture_cold_encoding(&mut db, &store, &tight, "");
            let restored = restore_kind(&mut db, &store, &loose);
            if reference_paths {
                assert!(restored.is_none());
                continue;
            }
            let (report, kind) = restored.expect("re-derived from the digest");
            assert_eq!(kind, ServeKind::Refine);
            assert!(report.executed.is_empty(), "no Qi step ran");
            assert_eq!(report.min_groups, min_groups_for(report.total_groups, 0.25));
            let derived = encoded_tables(&db, &loose);
            let mut cold = purchase_db();
            let translation = translated(&cold, &loose);
            preprocess(&mut cold, &translation).unwrap();
            assert_eq!(derived, encoded_tables(&cold, &loose));
        }
    }

    /// A mutated source never gets its stale encoding back. On the
    /// production paths the delta is replayed onto the kept digest and
    /// the encoding re-derived — equal to a cold preprocess of the
    /// mutated source; the stepwise program keeps no digest and misses.
    #[test]
    fn source_mutation_invalidates_by_version() {
        let text = stmt_text(0.25, 0.1, "R");
        let insert = "INSERT INTO Purchase VALUES \
                      (99, 'c9', 'umbrella', DATE '1997-01-08', 10, 1)";
        for reference_paths in [false, true] {
            let store = ArtifactStore::new(true);
            let mut db = purchase_db();
            db.set_reference_paths(reference_paths);
            capture_cold_encoding(&mut db, &store, &text, "");
            db.execute(insert).unwrap();
            let restored = restore_kind(&mut db, &store, &text);
            if reference_paths {
                assert!(restored.is_none(), "a stale encoding must never serve");
                continue;
            }
            let (_, kind) = restored.expect("the delta replays onto the digest");
            assert_eq!(kind, ServeKind::Delta);
            let mut cold = purchase_db();
            cold.execute(insert).unwrap();
            let translation = translated(&cold, &text);
            preprocess(&mut cold, &translation).unwrap();
            assert_eq!(encoded_tables(&db, &text), encoded_tables(&cold, &text));
        }
    }

    #[test]
    fn disabled_cache_never_hits_or_stores() {
        let store = ArtifactStore::new(false);
        assert!(!store.is_enabled());
        let mut db = purchase_db();
        let (_, stored) = capture_cold_encoding(&mut db, &store, &stmt_text(0.25, 0.1, "R"), "");
        assert_eq!(stored.encoding_bytes, 0);
        let (_, _, stored) = capture(&mut db, &store, &stmt_text(0.25, 0.1, "R"));
        assert_eq!(stored.inventory_bytes, 0);
        assert!(restore(&mut db, &store, &stmt_text(0.25, 0.1, "R")).is_none());
        assert_eq!(
            serve_warm(&mut db, &store, &stmt_text(0.25, 0.1, "R")),
            None
        );
    }

    #[test]
    fn lru_evicts_beyond_capacity() {
        let store = ArtifactStore::new(true);
        let mut db = purchase_db();
        let text = stmt_text(0.25, 0.1, "R");
        // The first entry holds both halves, the rest an encoding only.
        // Distinct fingerprints via distinct group-by attributes are
        // scarce; distinct prefixes do the same job.
        capture_cold_encoding(&mut db, &store, &text, "");
        capture(&mut db, &store, &text);
        let mut last = StoreOutcome::default();
        for i in 0..MAX_ENTRIES {
            assert_eq!(last.evicted_encodings + last.evicted_inventories, 0);
            last = capture_cold_encoding(&mut db, &store, &text, &format!("p{i}_")).1;
        }
        assert_eq!(store.lock().unwrap().entries.len(), MAX_ENTRIES);
        assert_eq!(
            (last.evicted_encodings, last.evicted_inventories),
            (1, 1),
            "one evicted entry counts once per half it held"
        );
        assert!(last.encoding_bytes > 0);
        assert_eq!(last.inventory_bytes, 0, "the only inventory went with it");
    }

    /// Decode encoded rules the way the pipeline's postprocess phase does.
    fn decoded(
        db: &mut Database,
        translation: &Translation,
        rules: &EncodedRules,
    ) -> Vec<DecodedRule> {
        store_encoded_rules(db, translation, rules).unwrap();
        postprocess(db, translation).unwrap();
        read_rules(db, translation).unwrap()
    }

    /// Through the engine a restored simple-class encoding always meets a
    /// servable inventory; the store itself promises more — a restored
    /// encoding read and mined by the core operator (pruned at a looser
    /// threshold than the statement's, so other `Bid`s than a cold run)
    /// decodes to the rules of a cold mine.
    #[test]
    fn restored_simple_encoding_mined_by_the_core_agrees_with_a_cold_mine() {
        let store = ArtifactStore::new(true);
        let mut db = purchase_db();
        capture_cold_encoding(&mut db, &store, &stmt_text(0.25, 0.1, "R"), "");
        let tight = stmt_text(0.5, 0.4, "R");
        let translation = translated(&db, &tight);
        assert!(restore(&mut db, &store, &tight).is_some());
        let encoded = read_encoded(&mut db, &translation).unwrap();
        let mined = run_core(&encoded, &CoreOptions::default()).unwrap();
        let warm = decoded(&mut db, &translation, &mined.rules);
        assert!(!warm.is_empty());
        assert_eq!(warm, cold_reference(&[], &tight));
    }

    // ---- the inventory half, through the engine -------------------------

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
        // The loose mine replaced the inventory, so tightening hits again.
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
        // Churn past the bounded change log: the kept stamp's window
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
        let engine = MineRuleEngine::new().with_cache(false);
        assert!(!engine.cache_enabled());
        let mut db = purchase_db();
        engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        let warm = engine.execute(&mut db, &stmt_text(0.5, 0.4, "R")).unwrap();
        let snap = engine.metrics_snapshot();
        for name in [
            "preprocess.cache.hit",
            "preprocess.cache.miss",
            "core.minecache.hit",
            "core.minecache.miss",
        ] {
            assert_eq!(snap.counter(name), 0, "{name}");
        }
        assert_eq!(warm.rules, cold_reference(&[], &stmt_text(0.5, 0.4, "R")));
    }

    /// A two-table FROM is directive W: the fused pass declines it (one
    /// scan cannot read a join) and the store keeps no inventory for it.
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
        let translation = translated(&db, text);
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

    // ---- the inventory half, driven layer by layer ----------------------

    /// Preprocess, mine and capture the inventory of `text` the way the
    /// pipeline does.
    fn capture(
        db: &mut Database,
        store: &ArtifactStore,
        text: &str,
    ) -> (Translation, PreprocessReport, StoreOutcome) {
        let translation = translated(db, text);
        let report = preprocess(db, &translation).unwrap();
        let encoded = read_encoded(db, &translation).unwrap();
        let mined = run_core(&encoded, &CoreOptions::default()).unwrap();
        let stored = store.capture_inventory(
            db,
            &translation,
            "",
            &report,
            mined.large_itemsets.as_deref().unwrap(),
        );
        (translation, report, stored)
    }

    /// Preprocess `text` and ask the store for its core phase.
    fn serve_warm(db: &mut Database, store: &ArtifactStore, text: &str) -> Option<ServeKind> {
        let translation = translated(db, text);
        let report = preprocess(db, &translation).unwrap();
        let served = store.serve_rules(db, &translation, "", &report).unwrap();
        served.map(|s| s.kind)
    }

    /// The most recently used entry's digest and (sorted) itemsets.
    fn newest(store: &ArtifactStore) -> (Arc<SourceDigest>, Vec<CachedItemset>) {
        let state = store.lock().unwrap();
        let entry = state.entries.last().expect("an entry was captured");
        let inventory = entry.inventory.as_ref().expect("it holds an inventory");
        let mut itemsets = inventory.itemsets.clone();
        itemsets.sort_by(|a, b| a.items.cmp(&b.items));
        (inventory.digest.clone(), itemsets)
    }

    #[test]
    fn fused_digest_capture_equals_the_fallback_scan() {
        let text = stmt_text(0.25, 0.1, "R");
        let mut db = purchase_db();
        let rows = db.catalog().table("Purchase").unwrap().row_count() as u64;

        let fused = ArtifactStore::new(true);
        let (_, report, stored) = capture(&mut db, &fused, &text);
        assert_eq!(stored.source_rows, 0, "the fused pass already read them");
        let (fused_digest, fused_itemsets) = newest(&fused);
        assert!(Arc::ptr_eq(report.digest.as_ref().unwrap(), &fused_digest));

        // Step by step (the reference paths) no digest leaves preprocess,
        // so the capture runs the same scan itself.
        db.set_reference_paths(true);
        let scanned = ArtifactStore::new(true);
        let (_, report, stored) = capture(&mut db, &scanned, &text);
        assert!(report.digest.is_none());
        assert_eq!(stored.source_rows, rows);
        let (scanned_digest, scanned_itemsets) = newest(&scanned);
        assert_eq!(*fused_digest, *scanned_digest, "dictionaries + multiset");
        assert_eq!(fused_itemsets, scanned_itemsets);
        assert!(!fused_itemsets.is_empty());
        assert_eq!(fused_digest.rows(), rows);
    }

    #[test]
    fn refine_serves_and_same_version_recaptures_share_the_digest() {
        // Fused: the inventory holds the very digest the report carried,
        // and warm serves leave it where it is.
        let mut db = purchase_db();
        let store = ArtifactStore::new(true);
        let (_, report, _) = capture(&mut db, &store, &stmt_text(0.5, 0.4, "R"));
        let captured = report.digest.unwrap();
        for (support, confidence, kind) in [
            (0.5, 0.7, ServeKind::Refine),
            (0.75, 0.1, ServeKind::Refine),
            (0.75, 0.1, ServeKind::Hit),
        ] {
            let served = serve_warm(&mut db, &store, &stmt_text(support, confidence, "R"));
            assert_eq!(served, Some(kind));
            assert!(Arc::ptr_eq(&captured, &newest(&store).0));
        }

        // Step by step: a loosened support misses, and its recapture at
        // the unchanged source version reuses the replaced inventory's
        // digest instead of scanning again.
        let mut db = purchase_db();
        db.set_reference_paths(true);
        let store = ArtifactStore::new(true);
        let (_, _, stored) = capture(&mut db, &store, &stmt_text(0.5, 0.4, "R"));
        assert!(stored.source_rows > 0);
        let first = newest(&store).0;
        assert_eq!(
            serve_warm(&mut db, &store, &stmt_text(0.25, 0.1, "R")),
            None
        );
        let (_, _, stored) = capture(&mut db, &store, &stmt_text(0.25, 0.1, "R"));
        assert_eq!(stored.source_rows, 0);
        assert!(Arc::ptr_eq(&first, &newest(&store).0));
        // ... but never across a version change.
        db.execute("DELETE FROM Purchase WHERE tr = 1").unwrap();
        let (_, _, stored) = capture(&mut db, &store, &stmt_text(0.1, 0.1, "R"));
        assert!(stored.source_rows > 0);
        assert!(!Arc::ptr_eq(&first, &newest(&store).0));
    }

    #[test]
    fn delta_replay_copies_a_shared_digest_once_then_works_in_place() {
        let text = stmt_text(0.25, 0.1, "R");
        let mut db = purchase_db();
        let store = ArtifactStore::new(true);
        let (_, report, _) = capture(&mut db, &store, &text);
        // The report (a caller's `MiningOutcome`) still shares the digest:
        // the first delta must leave that snapshot untouched.
        let held = report.digest.unwrap();
        let snapshot = (*held).clone();
        db.execute("INSERT INTO Purchase VALUES (9, 'c9', 'jackets', DATE '1997-01-08', 300, 1)")
            .unwrap();
        assert_eq!(serve_warm(&mut db, &store, &text), Some(ServeKind::Delta));
        let after_first = Arc::as_ptr(&newest(&store).0);
        assert_ne!(after_first, Arc::as_ptr(&held), "copied on write");
        assert_eq!(*held, snapshot, "the shared snapshot is untouched");

        // Nobody else holds the copy, so the second delta rewrites it in
        // place — and still lands on the digest a fresh scan would build.
        db.execute("DELETE FROM Purchase WHERE tr = 2 AND item = 'jackets'")
            .unwrap();
        assert_eq!(serve_warm(&mut db, &store, &text), Some(ServeKind::Delta));
        let (twice, _) = newest(&store);
        assert_eq!(Arc::as_ptr(&twice), after_first, "updated in place");
        let stmt = parse_mine_rule(&text).unwrap();
        let rescanned = scan_source(&db, &stmt).unwrap().into_digest().unwrap();
        assert_eq!(twice.version(), rescanned.version());
        assert_eq!(twice.rows(), rescanned.rows());
        assert_eq!(twice.by_key(), rescanned.by_key());
    }

    /// Both halves of an entry captured from one fused run share its
    /// digest, so a delta is replayed once, in place, when the encoding is
    /// re-derived: the inventory's supports are adjusted from that replay
    /// (its serve still reports the delta), and the encoding, the
    /// inventory and a fresh scan of the mutated source all agree.
    #[test]
    fn one_replay_updates_both_halves_in_place() {
        let text = stmt_text(0.25, 0.1, "R");
        let mut db = purchase_db();
        let store = ArtifactStore::new(true);
        let translation = translated(&db, &text);
        let run = preprocess_for_core(&mut db, &translation).unwrap();
        store.capture_encoding(&db, &translation, "", &run);
        let input = run.encoded_input(&translation).unwrap().unwrap();
        let mined = run_core(&input, &CoreOptions::default()).unwrap();
        let large = mined.large_itemsets.as_deref().unwrap();
        store.capture_inventory(&db, &translation, "", &run.report, large);
        drop(run);
        let shared = |store: &ArtifactStore| {
            let state = store.lock().unwrap();
            let entry = state.entries.last().unwrap();
            let encoding = entry.encoding.as_ref().unwrap().digest.clone().unwrap();
            let inventory = entry.inventory.as_ref().unwrap();
            assert!(Arc::ptr_eq(&encoding, &inventory.digest), "one digest");
            let unanswered = inventory.answered != inventory.digest.version();
            (Arc::as_ptr(&encoding), unanswered)
        };
        let (captured, _) = shared(&store);

        let insert = "INSERT INTO Purchase VALUES (9, 'c9', 'jackets', DATE '1997-01-08', 300, 1)";
        db.execute(insert).unwrap();
        let translation = translated(&db, &text);
        let (run, kind) = store
            .restore_encoding(&mut db, &translation, "")
            .unwrap()
            .unwrap();
        assert_eq!(kind, ServeKind::Delta);
        // The encoding is not captured yet: the inventory alone holds the
        // digest, replayed where it lies.
        let (digest, itemsets) = newest(&store);
        assert_eq!(Arc::as_ptr(&digest), captured, "replayed in place");
        assert!(Arc::ptr_eq(&digest, run.report.digest.as_ref().unwrap()));
        drop(digest);
        store.capture_encoding(&db, &translation, "", &run);
        assert_eq!(shared(&store), (captured, true));

        let stmt = parse_mine_rule(&text).unwrap();
        let rescanned = scan_source(&db, &stmt).unwrap().into_digest().unwrap();
        let (digest, _) = newest(&store);
        assert_eq!(digest.version(), rescanned.version());
        assert_eq!(digest.by_key(), rescanned.by_key());
        assert_eq!(*digest, rescanned, "ids and scan order too");
        drop(digest);

        // The serve reports the replay and re-mines nothing more.
        let served = store
            .serve_rules(&db, &translation, "", &run.report)
            .unwrap();
        assert_eq!(served.map(|s| s.kind), Some(ServeKind::Delta));
        assert_eq!(newest(&store).1, itemsets, "adjusted at restore time");
        assert_eq!(shared(&store), (captured, false));
        // Answered once, the delta is not reported again.
        let mut warm = db;
        let served = store
            .serve_rules(&warm, &translation, "", &run.report)
            .unwrap()
            .unwrap();
        assert_eq!(served.kind, ServeKind::Hit);
        let warm_rules = decoded(&mut warm, &translation, &served.rules);
        assert_eq!(warm_rules, cold_reference(&[insert], &text));
    }

    /// The scan's pairs live in the digest: an encoding counts it in its
    /// bytes until the entry's inventory holds the same digest, which then
    /// counts it instead — once either way.
    #[test]
    fn a_shared_digest_is_counted_once() {
        let text = stmt_text(0.25, 0.1, "R");
        let mut db = purchase_db();
        let store = ArtifactStore::new(true);
        let translation = translated(&db, &text);
        let run = preprocess_for_core(&mut db, &translation).unwrap();
        let digest = run.report.digest.as_ref().unwrap().approx_bytes();
        let alone = store.capture_encoding(&db, &translation, "", &run);
        let input = run.encoded_input(&translation).unwrap().unwrap();
        let mined = run_core(&input, &CoreOptions::default()).unwrap();
        let large = mined.large_itemsets.as_deref().unwrap();
        let both = store.capture_inventory(&db, &translation, "", &run.report, large);
        assert_eq!(alone.encoding_bytes - both.encoding_bytes, digest);
        let state = store.lock().unwrap();
        let inventory = state.entries[0].inventory.as_ref().unwrap().bytes;
        assert_eq!(both.inventory_bytes, inventory);
        assert!(inventory > digest, "the inventory counts the digest");
    }

    /// The halves are replaced independently: a cold re-preprocess after
    /// DML (what follows a declined re-derivation) replaces the encoding
    /// and leaves the stale-version inventory for the delta replay; a
    /// delta that cannot be replayed drops only the inventory.
    #[test]
    fn a_new_encoding_keeps_the_stale_inventory_and_a_torn_delta_drops_only_it() {
        let text = stmt_text(0.25, 0.1, "R");
        let mut db = purchase_db();
        let store = ArtifactStore::new(true);
        capture_cold_encoding(&mut db, &store, &text, "");
        capture(&mut db, &store, &text);
        let v0 = newest(&store).0.version();

        db.execute("INSERT INTO Purchase VALUES (9, 'c9', 'jackets', DATE '1997-01-08', 300, 1)")
            .unwrap();
        capture_cold_encoding(&mut db, &store, &text, "");
        assert_eq!(newest(&store).0.version(), v0, "the inventory stayed");
        assert_eq!(serve_warm(&mut db, &store, &text), Some(ServeKind::Delta));
        assert_eq!(store.lock().unwrap().entries.len(), 1);

        // Churn past the bounded change log: nothing to replay from.
        for _ in 0..9 {
            db.execute("INSERT INTO Purchase (SELECT * FROM Purchase)")
                .unwrap();
        }
        capture_cold_encoding(&mut db, &store, &text, "");
        assert_eq!(serve_warm(&mut db, &store, &text), None);
        let state = store.lock().unwrap();
        assert!(state.entries[0].inventory.is_none());
        assert!(state.entries[0].encoding.is_some());
        drop(state);
        assert!(restore(&mut db, &store, &text).is_some());
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
