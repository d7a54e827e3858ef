//! Durable paged storage: slotted pages, a pager over one heap file, and
//! a write-ahead log with recovery-on-open. A durability layer over
//! memory-resident tables: the store is read once, at open, and written
//! after every statement.
//!
//! The tightly-coupled architecture assumes the DBMS side provides real
//! storage; this module is that side's storage engine. A database opened
//! with [`StorageBackend::Paged`] writes every committed statement
//! through a WAL before it touches the heap, so a crash at *any* point —
//! mid-append, mid-fsync, mid-checkpoint — loses nothing that was
//! committed and resurrects nothing that was not. The full protocol and
//! its invariants are documented in `docs/STORAGE.md`.
//!
//! Layout of a store directory:
//!
//! * `heap.tcdm` — flat array of checksummed [`page::PAGE_SIZE`] slotted
//!   pages; page 0 is the superblock pointing at the catalog chain, and
//!   every table heap is a singly-linked chain of pages.
//! * `wal.tcdm` — the write-ahead log ([`wal`]); one transaction per SQL
//!   statement, full-page redo images, truncated at each checkpoint.
//!
//! Because encoded mining artifacts (`CodedSource`, `Bset`, `Hset`, the
//! rule tables) are ordinary catalog tables, the preprocessor and
//! postprocessor inherit durability with zero extra plumbing: their
//! tables flow through the same pager as user data.
//!
//! ## Kill and recover
//!
//! ```
//! use relational::Database;
//! let dir = std::env::temp_dir().join(format!("tcdm_storage_doc_{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! {
//!     let mut db = Database::open_paged(&dir).unwrap();
//!     db.execute("CREATE TABLE t (a INT)").unwrap();
//!     db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
//! } // dropped without a checkpoint — the WAL alone carries the commits
//! let mut db = Database::open_paged(&dir).unwrap();
//! let n = db.query("SELECT COUNT(*) FROM t").unwrap();
//! assert_eq!(n.scalar().unwrap().to_string(), "3");
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub mod page;
pub mod pager;
pub mod wal;

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::path::Path;

use crate::catalog::{Catalog, View};
use crate::error::{Error, Result};
use crate::row::Row;
use crate::sequence::Sequence;
use crate::sql::ast::Statement;
use crate::sql::parser::parse_statement;
use crate::table::{RowsMoved, Table};
use crate::types::{Column, DataType, Schema};
use crate::value::{Date, Value};

use page::{Page, MAX_CELL, PAGE_SIZE};
use pager::Pager;
use wal::{Wal, WalRecord};
pub use wal::{WalFault, WalFaultKind};

/// Which storage engine a [`crate::Database`] runs on.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum StorageBackend {
    /// Everything lives in process memory; persistence only via the
    /// explicit [`crate::persist`] snapshot. The default.
    #[default]
    Memory,
    /// Durable paged storage: slotted pages + WAL, crash-safe at every
    /// statement boundary. Requires a storage directory.
    Paged,
}

impl StorageBackend {
    /// Parse a backend name (`memory` | `paged`), ASCII-case-insensitively.
    pub fn from_name(name: &str) -> Option<StorageBackend> {
        match name.to_ascii_lowercase().as_str() {
            "memory" => Some(StorageBackend::Memory),
            "paged" => Some(StorageBackend::Paged),
            _ => None,
        }
    }

    /// The canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            StorageBackend::Memory => "memory",
            StorageBackend::Paged => "paged",
        }
    }
}

impl fmt::Display for StorageBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Tuning knob of the paged backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageConfig {
    /// Auto-checkpoint once the WAL grows past this many bytes. Also
    /// bounds the committed pages held in memory for the heap: each has
    /// its image in the WAL.
    pub checkpoint_bytes: u64,
}

impl Default for StorageConfig {
    fn default() -> StorageConfig {
        StorageConfig {
            checkpoint_bytes: 1 << 20, // 1 MiB of WAL
        }
    }
}

/// Work counters of the paged backend, all zero under the memory
/// backend. Surfaced as `relational.storage.*` telemetry deltas.
#[derive(Debug, Default, Clone, Copy)]
pub struct StorageStats {
    /// Pages read from the heap file (each reachable page, once per open).
    pub page_reads: u64,
    /// Pages written to the heap file (checkpoints only).
    pub page_writes: u64,
    /// Records appended to the write-ahead log.
    pub wal_appends: u64,
    /// Successful WAL fsyncs (one per committed transaction).
    pub wal_fsyncs: u64,
    /// Recoveries performed at open (a non-empty WAL was replayed).
    pub recoveries: u64,
}

impl StorageStats {
    /// Field-wise sum (used to fold a detached store into a running total).
    pub fn merged(self, other: StorageStats) -> StorageStats {
        StorageStats {
            page_reads: self.page_reads + other.page_reads,
            page_writes: self.page_writes + other.page_writes,
            wal_appends: self.wal_appends + other.wal_appends,
            wal_fsyncs: self.wal_fsyncs + other.wal_fsyncs,
            recoveries: self.recoveries + other.recoveries,
        }
    }
}

const MAGIC: &[u8; 8] = b"TCDMPG01";
const CATALOG_HEADER: &str = "tcdm-storage-catalog v1";
const HEAP_FILE: &str = "heap.tcdm";
const WAL_FILE: &str = "wal.tcdm";

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\t', "\\t")
        .replace('\n', "\\n")
}

fn unesc(s: &str) -> Result<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('t') => out.push('\t'),
                Some('n') => out.push('\n'),
                Some('\\') => out.push('\\'),
                other => {
                    return Err(Error::storage(format!(
                        "bad escape in stored catalog: \\{other:?}"
                    )))
                }
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

/// Encode one row as one page cell: `ncols u16`, then a tag byte per
/// value (0 NULL, 1 INT i64, 2 FLOAT bits u64, 3 STR len u32 + UTF-8,
/// 4 BOOL u8, 5 DATE days i32), all little-endian. Floats round-trip by
/// bit pattern, so the codec is bit-exact.
fn encode_row(row: &Row) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + row.len() * 9);
    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for v in row {
        match v {
            Value::Null => out.push(0),
            Value::Int(i) => {
                out.push(1);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(2);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                out.push(3);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bool(b) => {
                out.push(4);
                out.push(*b as u8);
            }
            Value::Date(d) => {
                out.push(5);
                out.extend_from_slice(&d.days_since_epoch().to_le_bytes());
            }
        }
    }
    out
}

/// Length of [`encode_row`]'s output, without producing it.
fn encoded_len(row: &Row) -> usize {
    let values = row.iter().map(|v| match v {
        Value::Null => 1,
        Value::Int(_) | Value::Float(_) => 9,
        Value::Str(s) => 5 + s.len(),
        Value::Bool(_) => 2,
        Value::Date(_) => 5,
    });
    2 + values.sum::<usize>()
}

/// A row is one cell and a cell never spans pages: refuse, before any
/// table or page takes it, a row no page can hold.
pub(crate) fn check_row(row: &Row) -> Result<()> {
    let len = encoded_len(row);
    if len > MAX_CELL {
        return Err(Error::storage(format!(
            "row of {len} bytes exceeds the page capacity of {MAX_CELL} bytes"
        )));
    }
    Ok(())
}

fn decode_row(cell: &[u8]) -> Result<Row> {
    fn take<'a>(cell: &'a [u8], at: &mut usize, n: usize) -> Result<&'a [u8]> {
        let s = cell
            .get(*at..*at + n)
            .ok_or_else(|| Error::storage("truncated row cell"))?;
        *at += n;
        Ok(s)
    }
    let mut at = 0usize;
    let b = take(cell, &mut at, 2)?;
    let ncols = u16::from_le_bytes([b[0], b[1]]);
    let mut row = Vec::with_capacity(ncols as usize);
    for _ in 0..ncols {
        let tag = take(cell, &mut at, 1)?[0];
        row.push(match tag {
            0 => Value::Null,
            1 => {
                let b = take(cell, &mut at, 8)?;
                Value::Int(i64::from_le_bytes(b.try_into().expect("8 bytes")))
            }
            2 => {
                let b = take(cell, &mut at, 8)?;
                Value::Float(f64::from_bits(u64::from_le_bytes(
                    b.try_into().expect("8 bytes"),
                )))
            }
            3 => {
                let b = take(cell, &mut at, 4)?;
                let len = u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize;
                let s = take(cell, &mut at, len)?;
                Value::Str(
                    String::from_utf8(s.to_vec())
                        .map_err(|_| Error::storage("stored string is not UTF-8"))?,
                )
            }
            4 => Value::Bool(take(cell, &mut at, 1)?[0] != 0),
            5 => {
                let b = take(cell, &mut at, 4)?;
                Value::Date(Date::from_days_since_epoch(i32::from_le_bytes(
                    b.try_into().expect("4 bytes"),
                )))
            }
            other => return Err(Error::storage(format!("unknown value tag {other}"))),
        });
    }
    if at != cell.len() {
        return Err(Error::storage("trailing bytes in row cell"));
    }
    Ok(row)
}

/// One page of a table heap as the store remembers it.
#[derive(Debug, Clone, Copy)]
struct PageRef {
    id: u32,
    /// Rows (cells) the page holds. A page need not be full: a DELETE
    /// leaves its page short, a split leaves two.
    rows: u32,
}

/// The disk-side identity of one table heap.
#[derive(Debug)]
struct HeapEntry {
    /// Version stamp of the in-memory [`Table`] this chain mirrors.
    version: u64,
    /// Every page of the chain, in order and never empty: the chain read
    /// front to back is the table's rows in position order, so the
    /// running total of `rows` says which page holds which positions.
    pages: Vec<PageRef>,
}

impl HeapEntry {
    /// First page of the chain, the id the catalog blob names.
    fn root(&self) -> u32 {
        self.pages[0].id
    }

    fn row_count(&self) -> usize {
        self.pages.iter().map(|p| p.rows as usize).sum()
    }
}

/// The parsed form of the on-disk catalog blob.
struct CatalogImage {
    tables: Vec<(String, u32, Vec<Column>)>,
    views: Vec<(String, String)>,
    sequences: Vec<(String, i64, i64)>,
}

fn parse_catalog_blob(blob: &str) -> Result<CatalogImage> {
    let mut lines = blob.lines();
    if lines.next() != Some(CATALOG_HEADER) {
        return Err(Error::storage("catalog blob has a bad header"));
    }
    let mut image = CatalogImage {
        tables: Vec::new(),
        views: Vec::new(),
        sequences: Vec::new(),
    };
    for line in lines {
        let mut parts = line.split('\t');
        match parts.next() {
            Some("table") => {
                let (Some(name), Some(root)) = (parts.next(), parts.next()) else {
                    return Err(Error::storage("catalog blob: malformed table line"));
                };
                let root: u32 = root
                    .parse()
                    .map_err(|_| Error::storage("catalog blob: bad root page id"))?;
                let mut cols = Vec::new();
                for spec in parts {
                    let Some((cname, ctype)) = spec.rsplit_once(':') else {
                        return Err(Error::storage("catalog blob: malformed column spec"));
                    };
                    let dtype = DataType::from_sql_name(ctype).ok_or_else(|| {
                        Error::storage(format!("catalog blob: unknown type {ctype}"))
                    })?;
                    cols.push(Column::new(unesc(cname)?, dtype));
                }
                image.tables.push((unesc(name)?, root, cols));
            }
            Some("view") => {
                let (Some(name), Some(sql)) = (parts.next(), parts.next()) else {
                    return Err(Error::storage("catalog blob: malformed view line"));
                };
                image.views.push((unesc(name)?, unesc(sql)?));
            }
            Some("sequence") => {
                let (Some(name), Some(next), Some(inc)) =
                    (parts.next(), parts.next(), parts.next())
                else {
                    return Err(Error::storage("catalog blob: malformed sequence line"));
                };
                let next: i64 = next
                    .parse()
                    .map_err(|_| Error::storage("catalog blob: bad sequence value"))?;
                let inc: i64 = inc
                    .parse()
                    .map_err(|_| Error::storage("catalog blob: bad sequence increment"))?;
                image.sequences.push((unesc(name)?, next, inc));
            }
            Some("") | None => {}
            Some(other) => {
                return Err(Error::storage(format!(
                    "catalog blob: unknown record '{other}'"
                )))
            }
        }
    }
    Ok(image)
}

/// A durable store attached to one directory: pager + WAL + the table
/// map that links in-memory version stamps to on-disk page chains.
///
/// The store is *write-through at statement granularity*: the engine
/// calls [`PagedStore::sync`] after every statement, which diffs table
/// version stamps, writes the pages the statement changed, and commits
/// the whole statement as one WAL transaction. See `docs/STORAGE.md`.
#[derive(Debug)]
pub struct PagedStore {
    pager: Pager,
    wal: Wal,
    cfg: StorageConfig,
    catalog_root: u32,
    catalog_pages: Vec<u32>,
    catalog_blob: String,
    /// Lowercased table name → its heap chain.
    tables: BTreeMap<String, HeapEntry>,
    next_tx: u64,
    recoveries: u64,
    poisoned: bool,
}

impl PagedStore {
    /// Open (or create) a store under `dir`, replaying the WAL first if
    /// the previous process died with committed-but-unflushed work, and
    /// materialise what it holds: tables, views and sequences (an empty
    /// catalog for a new store). Every table gets a *fresh* version
    /// stamp, so cache entries from before the reopen can never hit it.
    pub fn open(dir: &Path, cfg: StorageConfig) -> Result<(PagedStore, Catalog)> {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::storage(format!("create {}: {e}", dir.display())))?;
        let (wal, records) = Wal::open(&dir.join(WAL_FILE))?;
        let pager = Pager::open(&dir.join(HEAP_FILE))?;
        let fresh = pager.file_pages() == 0 && records.is_empty();
        let mut store = PagedStore {
            pager,
            wal,
            cfg,
            catalog_root: 0,
            catalog_pages: Vec::new(),
            catalog_blob: String::new(),
            tables: BTreeMap::new(),
            next_tx: 1,
            recoveries: 0,
            poisoned: false,
        };
        if fresh {
            store.init_fresh()?;
            return Ok((store, Catalog::new()));
        }
        if !records.is_empty() {
            store.recover(records)?;
        }
        let catalog = store.load()?;
        Ok((store, catalog))
    }

    fn check_poisoned(&self) -> Result<()> {
        if self.poisoned {
            return Err(Error::storage(
                "storage hit a fault; reopen the database to recover",
            ));
        }
        Ok(())
    }

    /// Current work counters.
    pub fn stats(&self) -> StorageStats {
        StorageStats {
            page_reads: self.pager.reads(),
            page_writes: self.pager.writes(),
            wal_appends: self.wal.appends(),
            wal_fsyncs: self.wal.fsyncs(),
            recoveries: self.recoveries,
        }
    }

    /// Arm (or disarm) the WAL crash-injection hook (tests only).
    pub fn set_fault(&mut self, fault: Option<WalFault>) {
        self.wal.set_fault(fault);
    }

    fn init_fresh(&mut self) -> Result<()> {
        self.write_catalog_blob(format!("{CATALOG_HEADER}\n"))?;
        self.commit()?;
        self.checkpoint()
    }

    fn recover(&mut self, records: Vec<WalRecord>) -> Result<()> {
        type TxImages = Vec<(u32, Box<[u8; PAGE_SIZE]>)>;
        self.recoveries = 1;
        let mut in_flight: HashMap<u64, TxImages> = HashMap::new();
        let mut committed: TxImages = Vec::new();
        let mut max_tx = 0u64;
        for record in records {
            match record {
                WalRecord::Begin { tx } => {
                    max_tx = max_tx.max(tx);
                    in_flight.insert(tx, Vec::new());
                }
                WalRecord::Page { tx, page_id, image } => {
                    if let Some(pages) = in_flight.get_mut(&tx) {
                        pages.push((page_id, image));
                    }
                }
                WalRecord::Commit { tx } => {
                    // Commit order == file order: later images win.
                    committed.extend(in_flight.remove(&tx).unwrap_or_default());
                }
            }
        }
        // Anything still in `in_flight` never committed: discarded.
        for (page_id, image) in committed {
            let page = Page::from_bytes(&image[..])?;
            if page.id() != page_id {
                return Err(Error::storage(format!(
                    "wal image for page {page_id} carries id {}",
                    page.id()
                )));
            }
            self.pager.install(page);
        }
        self.next_tx = max_tx + 1;
        // Make the replayed state the new heap baseline, then empty the
        // WAL — the crash is fully absorbed.
        self.checkpoint()
    }

    /// Read the whole store once: superblock, catalog chain, then every
    /// table chain front to back — each page visited gives its id (for
    /// the chain record and the mark phase of the free-list sweep), its
    /// row count, and its rows, decoded straight from the page's cells.
    fn load(&mut self) -> Result<Catalog> {
        let sb = self.pager.read(0)?;
        let cell_ok = sb.cell_count() == 1 && sb.cell(0).len() == 12 && &sb.cell(0)[..8] == MAGIC;
        if !cell_ok {
            return Err(Error::storage(
                "superblock is not a tcdm paged store (bad magic)",
            ));
        }
        let c = sb.cell(0);
        let catalog_root = u32::from_le_bytes([c[8], c[9], c[10], c[11]]);
        let mut blob = Vec::new();
        let catalog_pages = self.walk_chain(catalog_root, |cell| {
            blob.extend_from_slice(cell);
            Ok(())
        })?;
        self.catalog_root = catalog_root;
        self.catalog_pages = catalog_pages.iter().map(|p| p.id).collect();
        self.catalog_blob =
            String::from_utf8(blob).map_err(|_| Error::storage("catalog blob is not UTF-8"))?;
        let image = parse_catalog_blob(&self.catalog_blob)?;

        let mut live: BTreeSet<u32> = BTreeSet::new();
        live.insert(0);
        live.extend(&self.catalog_pages);
        let mut catalog = Catalog::new();
        for (name, root, cols) in image.tables {
            let mut rows: Vec<Row> = Vec::new();
            let pages = self.walk_chain(root, |cell| {
                rows.push(decode_row(cell)?);
                Ok(())
            })?;
            live.extend(pages.iter().map(|p| p.id));
            let mut table = Table::new(name.clone(), Schema::new(cols));
            table.insert_all(rows)?;
            let version = table.version();
            self.tables
                .insert(name.to_ascii_lowercase(), HeapEntry { version, pages });
            catalog.create_table(table)?;
        }
        for (name, sql) in image.views {
            let Statement::Select(query) = parse_statement(&sql)? else {
                return Err(Error::storage("stored view body is not a SELECT"));
            };
            catalog.create_view(View { name, query })?;
        }
        for (name, next, inc) in image.sequences {
            catalog.create_sequence(Sequence::new(name, next, inc))?;
        }
        let free: Vec<u32> = (1..self.pager.page_count())
            .filter(|id| !live.contains(id))
            .collect();
        self.pager.set_free(free);
        Ok(catalog)
    }

    /// Follow the chain from `root`, handing every cell to `visit` in
    /// order; returns the pages passed, in order.
    fn walk_chain(
        &mut self,
        root: u32,
        mut visit: impl FnMut(&[u8]) -> Result<()>,
    ) -> Result<Vec<PageRef>> {
        let mut pages = Vec::new();
        let mut id = root;
        loop {
            let page = self.pager.read(id)?;
            for cell in page.cells() {
                visit(cell)?;
            }
            pages.push(PageRef {
                id,
                rows: page.cell_count() as u32,
            });
            id = page.next();
            if id == 0 {
                return Ok(pages);
            }
            if pages.len() as u64 > self.pager.page_count() as u64 {
                return Err(Error::storage(format!(
                    "page chain from {root} has a cycle"
                )));
            }
        }
    }

    fn write_superblock(&mut self, root: u32) -> Result<()> {
        let mut page = Page::new(0);
        let mut cell = Vec::with_capacity(12);
        cell.extend_from_slice(MAGIC);
        cell.extend_from_slice(&root.to_le_bytes());
        page.push_cell(&cell)?;
        self.pager.write(page);
        Ok(())
    }

    /// The one page writer. Push `cells` in order onto `page` — a new
    /// page, or a chain's tail with the cells it already holds — and onto
    /// as many newly allocated successors as they need; the last page
    /// written links to `end`. Returns every page written, in chain
    /// order, `page` first.
    fn write_run<C: AsRef<[u8]>>(
        &mut self,
        mut page: Page,
        cells: impl Iterator<Item = C>,
        end: u32,
    ) -> Result<Vec<PageRef>> {
        let mut written = Vec::new();
        let mut seal = |pager: &mut Pager, mut page: Page, next: u32| {
            written.push(PageRef {
                id: page.id(),
                rows: page.cell_count() as u32,
            });
            page.set_next(next);
            pager.write(page);
        };
        for cell in cells {
            if !page.push_cell(cell.as_ref())? {
                let next = self.pager.allocate();
                seal(
                    &mut self.pager,
                    std::mem::replace(&mut page, Page::new(next)),
                    next,
                );
                if !page.push_cell(cell.as_ref())? {
                    return Err(Error::storage("an empty page refused a cell that fits one"));
                }
            }
        }
        seal(&mut self.pager, page, end);
        Ok(written)
    }

    /// Lay `rows` out on a chain of new pages: how a table the store has
    /// no positional record for reaches disk.
    fn write_whole(&mut self, rows: &[Row]) -> Result<Vec<PageRef>> {
        let root = Page::new(self.pager.allocate());
        self.write_run(root, rows.iter().map(encode_row), 0)
    }

    /// Rewrite the pages of a chain that an UPDATE or DELETE reached and
    /// leave the others byte-identical. Page `i` of `old` now holds
    /// `keep[i]` of `rows`, in chain order; a page is written again when
    /// `touched[i]` or when its successor changed. A page left without
    /// rows is unlinked and freed (never the root, whose id the catalog
    /// names); rows that outgrew their page split it, the overflow going
    /// to new pages linked right behind.
    fn rewrite_pages(
        &mut self,
        old: &[PageRef],
        keep: &[u32],
        touched: &[bool],
        rows: &[Row],
    ) -> Result<Vec<PageRef>> {
        // Back to front, so each page's successor is known when it is
        // written.
        let mut chain: Vec<PageRef> = Vec::with_capacity(old.len());
        let mut next = 0u32;
        let mut end: usize = keep.iter().map(|&n| n as usize).sum();
        for i in (0..old.len()).rev() {
            let begin = end - keep[i] as usize;
            let linked_to = old.get(i + 1).map_or(0, |p| p.id);
            if keep[i] == 0 && i > 0 {
                self.pager.free_page(old[i].id);
            } else if touched[i] || linked_to != next {
                let cells = rows[begin..end].iter().map(encode_row);
                let run = self.write_run(Page::new(old[i].id), cells, next)?;
                chain.extend(run.into_iter().rev());
                next = old[i].id;
            } else {
                chain.push(old[i]);
                next = old[i].id;
            }
            end = begin;
        }
        chain.reverse();
        Ok(chain)
    }

    /// What the store can prove about how `table` differs from the chain
    /// it holds for it: the positions the table's latest mutation moved,
    /// when the chain mirrors the version that mutation replaced and the
    /// row counts bear it out. `None` — a new table, a TRUNCATE, more
    /// than one mutation since the last sync — means the chain is
    /// written whole.
    fn moved<'t>(&self, table: &'t Table) -> Option<&'t RowsMoved> {
        let entry = self.tables.get(&table.name().to_ascii_lowercase())?;
        let moved = table.moved_since(entry.version)?;
        let (stored, live) = (entry.row_count(), table.row_count());
        let consistent = match moved {
            RowsMoved::Appended { from } => *from == stored && stored <= live,
            RowsMoved::Deleted { at } => {
                stored == live + at.len() && at.last().map_or(true, |&p| p < stored)
            }
            RowsMoved::Updated { at } => stored == live && at.iter().all(|&p| p < stored),
        };
        consistent.then_some(moved)
    }

    /// Forget a table's chain, returning its pages to the free list.
    fn free_chain(&mut self, key: &str) {
        for p in self.tables.remove(key).iter().flat_map(|e| &e.pages) {
            self.pager.free_page(p.id);
        }
    }

    /// Bring `table`'s chain up to date: only the pages its latest
    /// mutation reached when `moved` (from [`PagedStore::moved`]) names
    /// them, the whole chain otherwise.
    fn mirror_table(&mut self, table: &Table, moved: Option<&RowsMoved>) -> Result<()> {
        let key = table.name().to_ascii_lowercase();
        let rows = table.rows();
        let entry = moved.and_then(|_| self.tables.remove(&key));
        let pages = match (entry, moved) {
            (Some(mut entry), Some(RowsMoved::Appended { from })) => {
                // The tail's image is its cells in order, so it is rebuilt
                // from the rows it holds, with the new ones behind them.
                let tail = entry.pages.pop().expect("a chain has a root");
                let cells = rows[*from - tail.rows as usize..].iter().map(encode_row);
                entry
                    .pages
                    .extend(self.write_run(Page::new(tail.id), cells, 0)?);
                entry.pages
            }
            (Some(entry), Some(RowsMoved::Deleted { at } | RowsMoved::Updated { at })) => {
                let deleting = matches!(moved, Some(RowsMoved::Deleted { .. }));
                // First position on each page, as of before the mutation.
                let mut starts = Vec::with_capacity(entry.pages.len());
                let mut total = 0usize;
                for p in &entry.pages {
                    starts.push(total);
                    total += p.rows as usize;
                }
                let mut keep: Vec<u32> = entry.pages.iter().map(|p| p.rows).collect();
                let mut touched = vec![false; keep.len()];
                for &position in at {
                    // The last page starting at or before the position:
                    // a page without rows shares its start with the next.
                    let i = starts.partition_point(|&s| s <= position) - 1;
                    touched[i] = true;
                    keep[i] -= u32::from(deleting);
                }
                self.rewrite_pages(&entry.pages, &keep, &touched, rows)?
            }
            _ => {
                self.free_chain(&key);
                self.write_whole(rows)?
            }
        };
        let version = table.version();
        self.tables.insert(key, HeapEntry { version, pages });
        Ok(())
    }

    /// Serialize the catalog using this store's current root map.
    fn serialize_catalog(&self, catalog: &Catalog) -> String {
        let mut out = format!("{CATALOG_HEADER}\n");
        for name in catalog.table_names() {
            let root = self
                .tables
                .get(&name.to_ascii_lowercase())
                .map_or(0, HeapEntry::root);
            let schema = catalog.table_schema(name).expect("listed table exists");
            out.push_str(&format!("table\t{}\t{root}", esc(name)));
            for c in schema.columns() {
                out.push_str(&format!("\t{}:{}", esc(&c.name), c.dtype));
            }
            out.push('\n');
        }
        for (name, sql) in catalog.view_definitions() {
            out.push_str(&format!("view\t{}\t{}\n", esc(&name), esc(&sql)));
        }
        for (name, next, inc) in catalog.sequence_states() {
            out.push_str(&format!("sequence\t{}\t{next}\t{inc}\n", esc(&name)));
        }
        out
    }

    /// Replace the catalog chain with one holding `blob`, repointing the
    /// superblock when the root moved.
    fn write_catalog_blob(&mut self, blob: String) -> Result<()> {
        for id in std::mem::take(&mut self.catalog_pages) {
            self.pager.free_page(id);
        }
        let root = Page::new(self.pager.allocate());
        let run = self.write_run(root, blob.as_bytes().chunks(MAX_CELL), 0)?;
        self.catalog_pages = run.iter().map(|p| p.id).collect();
        if self.catalog_pages[0] != self.catalog_root {
            self.catalog_root = self.catalog_pages[0];
            self.write_superblock(self.catalog_root)?;
        }
        self.catalog_blob = blob;
        Ok(())
    }

    /// Mirror `catalog` to disk as one committed transaction. Diffs by
    /// table version stamp: unchanged tables cost one u64 comparison;
    /// a changed table costs the pages its statement reached (or its
    /// whole chain, when the store cannot tell which those are). A no-op
    /// when nothing moved (the common case for pure SELECTs).
    ///
    /// A row that fits no page is refused before anything is written:
    /// the store is then exactly as it was. Any later failure leaves
    /// pages half-written in the pager, so it poisons the store — reopen
    /// to recover the last committed state.
    pub fn sync(&mut self, catalog: &Catalog) -> Result<()> {
        self.check_poisoned()?;
        let mut changed: Vec<(&Table, Option<&RowsMoved>)> = Vec::new();
        let mut live_keys: BTreeSet<String> = BTreeSet::new();
        for name in catalog.table_names() {
            let key = name.to_ascii_lowercase();
            let table = catalog.table(name).expect("listed table exists");
            if self.tables.get(&key).map(|e| e.version) != Some(table.version()) {
                changed.push((table, self.moved(table)));
            }
            live_keys.insert(key);
        }
        let dropped: Vec<String> = self
            .tables
            .keys()
            .filter(|k| !live_keys.contains(*k))
            .cloned()
            .collect();
        if changed.is_empty()
            && dropped.is_empty()
            && self.serialize_catalog(catalog) == self.catalog_blob
        {
            return Ok(());
        }
        for (table, moved) in &changed {
            let rows = table.rows();
            match moved {
                Some(RowsMoved::Appended { from }) => rows[*from..].iter().try_for_each(check_row),
                Some(RowsMoved::Updated { at }) => at.iter().try_for_each(|&i| check_row(&rows[i])),
                Some(RowsMoved::Deleted { .. }) => Ok(()),
                None => rows.iter().try_for_each(check_row),
            }?;
        }

        let result = (|| {
            for key in dropped {
                self.free_chain(&key);
            }
            for (table, moved) in changed {
                self.mirror_table(table, moved)?;
            }
            let blob = self.serialize_catalog(catalog);
            if blob != self.catalog_blob {
                self.write_catalog_blob(blob)?;
            }
            self.commit()
        })();
        if result.is_err() {
            self.poisoned = true;
            return result;
        }
        if self.wal.len() > self.cfg.checkpoint_bytes {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// WAL-commit the current transaction: Begin, one full-page image
    /// per dirtied page, Commit, then one fsync. Durability boundary.
    fn commit(&mut self) -> Result<()> {
        let mut pages = self.pager.tx_pages().peekable();
        if pages.peek().is_none() {
            return Ok(());
        }
        let tx = self.next_tx;
        self.next_tx += 1;
        self.wal.append(&WalRecord::Begin { tx })?;
        for page in pages {
            let mut image = Box::new([0u8; PAGE_SIZE]);
            image.copy_from_slice(page.sealed_bytes());
            self.wal.append(&WalRecord::Page {
                tx,
                page_id: page.id(),
                image,
            })?;
        }
        self.wal.append(&WalRecord::Commit { tx })?;
        self.wal.sync()?;
        self.pager.end_tx();
        Ok(())
    }

    /// Flush every committed page to the heap, fsync it, then truncate
    /// the WAL: the heap alone now carries the whole state. Ordering is
    /// the crash-safety linchpin — the WAL only shrinks *after* the heap
    /// is durable.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.check_poisoned()?;
        let result = self.pager.flush_dirty().and_then(|_| self.wal.reset());
        if result.is_err() {
            self.poisoned = true;
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn temp_store(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tcdm_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Str),
                Column::new("c", DataType::Float),
                Column::new("d", DataType::Date),
                Column::new("e", DataType::Bool),
            ]),
        );
        t.insert(vec![
            Value::Int(1),
            Value::Str("tab\there".into()),
            Value::Float(0.1),
            Value::Date(Date::from_ymd(1995, 12, 17).unwrap()),
            Value::Bool(true),
        ])
        .unwrap();
        t.insert(vec![
            Value::Null,
            Value::Null,
            Value::Float(-0.0),
            Value::Null,
            Value::Bool(false),
        ])
        .unwrap();
        c.create_table(t).unwrap();
        c.create_sequence(Sequence::new("ids", 10, 3)).unwrap();
        c
    }

    #[test]
    fn row_codec_is_bit_exact() {
        let rows = [
            row![1i64, "x", 2.5],
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Float(f64::MIN_POSITIVE),
            ],
            vec![
                Value::Date(Date::from_ymd(1899, 3, 31).unwrap()),
                Value::Str("multi\nline\\slash".into()),
                Value::Int(i64::MIN),
            ],
        ];
        for row in &rows {
            let cell = encode_row(row);
            assert_eq!(encoded_len(row), cell.len());
            let decoded = decode_row(&cell).unwrap();
            assert_eq!(decoded.len(), row.len());
            for (a, b) in row.iter().zip(&decoded) {
                // Value::eq treats Int(7) == Float(7.0); compare debug
                // renderings to check the exact variant and bits survive.
                assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
        }
        assert!(decode_row(&[5, 0]).is_err(), "truncated cell");
        assert!(decode_row(&[1, 0, 9]).is_err(), "unknown tag");
    }

    #[test]
    fn fresh_store_roundtrips_a_catalog() {
        let dir = temp_store("roundtrip");
        {
            let (mut store, stored) = PagedStore::open(&dir, StorageConfig::default()).unwrap();
            assert!(stored.is_empty());
            store.sync(&sample_catalog()).unwrap();
        } // dropped without checkpoint: WAL carries the commit
        let (store, catalog) = PagedStore::open(&dir, StorageConfig::default()).unwrap();
        assert_eq!(store.stats().recoveries, 1);
        let t = catalog.table("T").unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.rows()[0][1], Value::Str("tab\there".into()));
        match &t.rows()[1][2] {
            Value::Float(f) => assert_eq!(f.to_bits(), (-0.0f64).to_bits()),
            other => panic!("{other:?}"),
        }
        assert_eq!(catalog.sequence_states(), vec![("ids".into(), 10, 3)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unchanged_catalog_sync_is_a_noop() {
        let dir = temp_store("noop");
        let (mut store, _) = PagedStore::open(&dir, StorageConfig::default()).unwrap();
        let catalog = sample_catalog();
        store.sync(&catalog).unwrap();
        let before = store.stats();
        store.sync(&catalog).unwrap();
        store.sync(&catalog).unwrap();
        let after = store.stats();
        assert_eq!(before.wal_appends, after.wal_appends);
        assert_eq!(before.page_writes, after.page_writes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropped_tables_free_their_pages_for_reuse() {
        let dir = temp_store("free");
        let (mut store, _) = PagedStore::open(&dir, StorageConfig::default()).unwrap();
        let mut catalog = sample_catalog();
        store.sync(&catalog).unwrap();
        let grown = store.pager.page_count();
        catalog.drop_table("t", false).unwrap();
        store.sync(&catalog).unwrap();
        // Recreate a similar table: its chain reuses the freed ids, so
        // the heap does not grow.
        let mut t = Table::new("t", Schema::new(vec![Column::new("a", DataType::Int)]));
        t.insert(row![42]).unwrap();
        catalog.create_table(t).unwrap();
        store.sync(&catalog).unwrap();
        assert_eq!(store.pager.page_count(), grown, "freed pages were reused");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A catalog holding `t (a INT, b VARCHAR)` with rows `0..n`, 19 to a
    /// page, attached to a fresh store that mirrors it.
    fn wide_store(tag: &str, n: i64) -> (std::path::PathBuf, PagedStore, Catalog) {
        let dir = temp_store(tag);
        let (mut store, _) = PagedStore::open(&dir, StorageConfig::default()).unwrap();
        let mut catalog = Catalog::new();
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Str),
        ]);
        catalog.create_table(Table::new("t", schema)).unwrap();
        store.sync(&catalog).unwrap();
        let t = catalog.table_mut("t").unwrap();
        t.insert_all((0..n).map(wide)).unwrap();
        store.sync(&catalog).unwrap();
        (dir, store, catalog)
    }

    fn wide(a: i64) -> Row {
        row![a, format!("{a:0190}")]
    }

    /// `(page id, rows)` along `t`'s chain, as the store remembers it.
    fn chain(store: &PagedStore) -> Vec<(u32, u32)> {
        let pages = &store.tables["t"].pages;
        pages.iter().map(|p| (p.id, p.rows)).collect()
    }

    /// Sync `catalog`; returns how many page images the commit logged.
    fn sync_images(store: &mut PagedStore, catalog: &Catalog) -> u64 {
        let before = store.stats().wal_appends;
        store.sync(catalog).unwrap();
        (store.stats().wal_appends - before).saturating_sub(2)
    }

    /// What is on disk — by a second store over the same directory, which
    /// replays the WAL and walks the chains — is `catalog`'s rows in order.
    fn assert_mirrored(dir: &Path, store: PagedStore, catalog: &Catalog) {
        let remembered = chain(&store);
        drop(store);
        let (reopened, stored) = PagedStore::open(dir, StorageConfig::default()).unwrap();
        assert_eq!(chain(&reopened), remembered, "the record matches the disk");
        let (stored, live) = (stored.table("t").unwrap(), catalog.table("t").unwrap());
        assert_eq!(format!("{:?}", stored.rows()), format!("{:?}", live.rows()));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn appends_fill_the_tail_and_link_pages_behind_it() {
        let (dir, mut store, mut catalog) = wide_store("append", 30);
        assert_eq!(chain(&store), [(2, 19), (3, 11)]);
        let t = catalog.table_mut("t").unwrap();
        t.insert_all((30..60).map(wide)).unwrap();
        // The tail it found, plus the two pages the rest needed.
        assert_eq!(sync_images(&mut store, &catalog), 3);
        assert_eq!(chain(&store), [(2, 19), (3, 19), (4, 19), (5, 3)]);
        catalog.table_mut("t").unwrap().insert(wide(60)).unwrap();
        assert_eq!(sync_images(&mut store, &catalog), 1);
        assert_eq!(chain(&store)[3], (5, 4));
        assert_mirrored(&dir, store, &catalog);
    }

    #[test]
    fn updates_and_deletes_rewrite_the_pages_they_reach_and_no_other() {
        let (dir, mut store, mut catalog) = wide_store("point", 95);
        assert_eq!(chain(&store).len(), 5);
        let t = catalog.table_mut("t").unwrap();
        t.apply_updates(vec![(40, row![40, "middle"]), (94, row![94, "last"])])
            .unwrap();
        assert_eq!(sync_images(&mut store, &catalog), 2);
        catalog
            .table_mut("t")
            .unwrap()
            .delete_where(|r| r[0] == Value::Int(0));
        assert_eq!(sync_images(&mut store, &catalog), 1);
        let ids: Vec<u32> = (2..7).collect();
        assert_eq!(chain(&store), [(2, 18), (3, 19), (4, 19), (5, 19), (6, 19)]);
        // Positions shifted by the delete still find their page: row 19
        // now sits first on the second page.
        let t = catalog.table_mut("t").unwrap();
        t.apply_updates(vec![(18, row![19, "second page"])])
            .unwrap();
        assert_eq!(sync_images(&mut store, &catalog), 1);
        assert_eq!(chain(&store).iter().map(|p| p.0).collect::<Vec<_>>(), ids);
        assert_mirrored(&dir, store, &catalog);
    }

    #[test]
    fn a_row_that_outgrows_its_page_splits_it_in_place() {
        let (dir, mut store, mut catalog) = wide_store("split", 57);
        assert_eq!(chain(&store), [(2, 19), (3, 19), (4, 19)]);
        let t = catalog.table_mut("t").unwrap();
        t.apply_updates(vec![(25, row![25, "S".repeat(2000)])])
            .unwrap();
        // The page and its overflow, linked right behind it; its old
        // neighbours are not written.
        assert_eq!(sync_images(&mut store, &catalog), 2);
        assert_eq!(chain(&store), [(2, 19), (3, 10), (5, 9), (4, 19)]);
        assert_mirrored(&dir, store, &catalog);
    }

    #[test]
    fn a_page_left_without_rows_is_unlinked_unless_it_is_the_root() {
        let (dir, mut store, mut catalog) = wide_store("unlink", 76);
        assert_eq!(chain(&store), [(2, 19), (3, 19), (4, 19), (5, 19)]);
        let in_range =
            |r: &Row, lo: i64, hi: i64| matches!(r[0], Value::Int(a) if (lo..hi).contains(&a));
        let t = catalog.table_mut("t").unwrap();
        t.delete_where(|r| in_range(r, 19, 57));
        // Two pages gone; the root is written again to point past them.
        assert_eq!(sync_images(&mut store, &catalog), 1);
        assert_eq!(chain(&store), [(2, 19), (5, 19)]);
        catalog
            .table_mut("t")
            .unwrap()
            .delete_where(|r| in_range(r, 0, 19));
        assert_eq!(sync_images(&mut store, &catalog), 1);
        assert_eq!(chain(&store), [(2, 0), (5, 19)], "the root stays");
        // Position 0 now lives on the second page.
        let t = catalog.table_mut("t").unwrap();
        t.apply_updates(vec![(0, row![57, "first"])]).unwrap();
        assert_eq!(sync_images(&mut store, &catalog), 1);
        // The freed ids are handed out again, smallest first; the tail
        // takes one more row in the room the shorter row left.
        let t = catalog.table_mut("t").unwrap();
        t.insert_all((76..100).map(wide)).unwrap();
        store.sync(&catalog).unwrap();
        assert_eq!(chain(&store), [(2, 0), (5, 20), (3, 19), (4, 4)]);
        catalog.table_mut("t").unwrap().delete_where(|_| true);
        store.sync(&catalog).unwrap();
        assert_eq!(chain(&store), [(2, 0)]);
        assert_mirrored(&dir, store, &catalog);
    }

    #[test]
    fn a_table_the_store_cannot_follow_is_written_whole() {
        let (dir, mut store, mut catalog) = wide_store("whole", 57);
        // Two mutations between syncs: the first is not on record.
        let t = catalog.table_mut("t").unwrap();
        t.delete_where(|r| r[0] == Value::Int(3));
        t.insert(wide(57)).unwrap();
        assert_eq!(sync_images(&mut store, &catalog), 3);
        assert_eq!(chain(&store), [(2, 19), (3, 19), (4, 19)]);
        let t = catalog.table_mut("t").unwrap();
        t.truncate();
        assert_eq!(sync_images(&mut store, &catalog), 1);
        assert_eq!(chain(&store), [(2, 0)]);
        assert_mirrored(&dir, store, &catalog);
    }

    #[test]
    fn an_unstorable_row_is_refused_before_anything_is_written() {
        let (dir, mut store, mut catalog) = wide_store("refuse", 30);
        let before = (chain(&store), store.stats().wal_appends);
        let huge = || row![99, "H".repeat(MAX_CELL)];
        // Appended, updated in place, and in a table written whole.
        catalog.table_mut("t").unwrap().insert(huge()).unwrap();
        assert!(store.sync(&catalog).is_err());
        catalog
            .table_mut("t")
            .unwrap()
            .delete_where(|r| r[0] == Value::Int(99));
        let t = catalog.table_mut("t").unwrap();
        t.apply_updates(vec![(5, huge())]).unwrap();
        assert!(store.sync(&catalog).is_err());
        assert!(store.sync(&catalog).is_err(), "refused, not forgotten");
        assert_eq!((chain(&store), store.stats().wal_appends), before);
        // Not poisoned: once the row is gone the table syncs again.
        let t = catalog.table_mut("t").unwrap();
        t.apply_updates(vec![(5, wide(5))]).unwrap();
        store.sync(&catalog).unwrap();
        assert_mirrored(&dir, store, &catalog);
    }

    #[test]
    fn injected_fault_poisons_then_reopen_recovers_committed_only() {
        let dir = temp_store("fault");
        let mut catalog = sample_catalog();
        {
            let (mut store, _) = PagedStore::open(&dir, StorageConfig::default()).unwrap();
            store.sync(&catalog).unwrap(); // committed
            store.set_fault(Some(WalFault {
                kind: WalFaultKind::Fsync,
                at: store.stats().wal_fsyncs,
            }));
            catalog
                .table_mut("t")
                .unwrap()
                .insert(row![
                    9,
                    "uncommitted",
                    0.0,
                    Date::from_ymd(2000, 1, 1).unwrap(),
                    false
                ])
                .unwrap();
            assert!(store.sync(&catalog).is_err(), "fsync fault fires");
            assert!(store.sync(&catalog).is_err(), "store is poisoned");
            assert!(store.checkpoint().is_err(), "checkpoint refused too");
        }
        let (_, recovered) = PagedStore::open(&dir, StorageConfig::default()).unwrap();
        assert_eq!(
            recovered.table("t").unwrap().row_count(),
            2,
            "committed rows present, uncommitted row absent"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
