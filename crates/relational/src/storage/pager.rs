//! The pager: maps page ids onto a single heap file, holds the pages
//! written since the last checkpoint, and hands out page ids from a free
//! list rebuilt by mark-and-sweep at open.
//!
//! The heap file is a flat array of [`PAGE_SIZE`] slots; page id `n`
//! lives at byte offset `n * PAGE_SIZE`. Page 0 is the superblock and is
//! never allocated to a chain. The free list is deliberately *not*
//! persisted: the store recomputes it at open from the set of reachable
//! pages, which removes a whole class of free-list corruption bugs.
//!
//! No-steal is structural: pages written by the statement in flight wait
//! in one map until [`Pager::end_tx`] moves them to a second, and only
//! that second map reaches the heap, at a checkpoint
//! ([`Pager::flush_dirty`]) — by then commit has made every image in it
//! durable in the WAL. The tables live in memory, so nothing reads a
//! page after open.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use super::page::{Page, PAGE_SIZE};
use crate::error::{Error, Result};

/// Heap-file manager; see the module docs for the protocol.
#[derive(Debug)]
pub struct Pager {
    file: File,
    /// Pages the store knows about (allocated; the file may be shorter
    /// until the next checkpoint reaches the tail).
    page_count: u32,
    /// Pages physically present in the file at open (fresh-store probe).
    file_pages: u32,
    /// Reusable page ids, sorted descending so `pop` yields the smallest
    /// (deterministic allocation order).
    free: Vec<u32>,
    /// Pages written by the transaction in flight.
    tx: BTreeMap<u32, Page>,
    /// Pages logged by a committed transaction, not yet checkpointed.
    committed: BTreeMap<u32, Page>,
    reads: u64,
    writes: u64,
}

impl Pager {
    /// Open (or create) the heap file.
    pub fn open(path: &Path) -> Result<Pager> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| Error::storage(format!("open heap {}: {e}", path.display())))?;
        let len = file
            .metadata()
            .map_err(|e| Error::storage(format!("stat heap: {e}")))?
            .len();
        let file_pages = (len / PAGE_SIZE as u64) as u32;
        Ok(Pager {
            file,
            page_count: file_pages.max(1), // page 0 is always reserved
            file_pages,
            free: Vec::new(),
            tx: BTreeMap::new(),
            committed: BTreeMap::new(),
            reads: 0,
            writes: 0,
        })
    }

    /// Pages physically present in the heap file when it was opened.
    pub fn file_pages(&self) -> u32 {
        self.file_pages
    }

    /// Pages the store has ever allocated (including freed ones).
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    /// Install the free list computed by mark-and-sweep.
    pub fn set_free(&mut self, mut free: Vec<u32>) {
        free.sort_unstable_by(|a, b| b.cmp(a));
        self.free = free;
    }

    /// Hand out a page id: the smallest free one, else a fresh one.
    pub fn allocate(&mut self) -> u32 {
        match self.free.pop() {
            Some(id) => id,
            None => {
                let id = self.page_count;
                self.page_count += 1;
                id
            }
        }
    }

    /// Return a page id to the free list and drop any image still
    /// waiting for the WAL or the heap.
    pub fn free_page(&mut self, id: u32) {
        self.tx.remove(&id);
        self.committed.remove(&id);
        match self.free.binary_search_by(|x| id.cmp(x)) {
            Ok(_) => {} // double-free is a no-op
            Err(at) => self.free.insert(at, id),
        }
    }

    /// Read a page from the heap, verifying its checksum and identity on
    /// the way in.
    pub fn read(&mut self, id: u32) -> Result<Page> {
        let mut buf = [0u8; PAGE_SIZE];
        self.file
            .seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))
            .and_then(|_| self.file.read_exact(&mut buf))
            .map_err(|e| Error::storage(format!("heap read page {id}: {e}")))?;
        self.reads += 1;
        let page = Page::from_bytes(&buf)?;
        if page.id() != id {
            return Err(Error::storage(format!(
                "heap page {id} carries id {} — misdirected write",
                page.id()
            )));
        }
        Ok(page)
    }

    /// Write a page inside the current transaction: held until
    /// [`Pager::end_tx`], and logged by the commit.
    pub fn write(&mut self, page: Page) {
        self.tx.insert(page.id(), page);
    }

    /// Install a committed page image during recovery, for the recovery
    /// checkpoint to flush, raising the allocation horizon past its id.
    pub fn install(&mut self, page: Page) {
        self.page_count = self.page_count.max(page.id() + 1);
        self.committed.insert(page.id(), page);
    }

    /// Every page written by the current transaction, in id order (pages
    /// freed again within the transaction are unreachable and absent).
    pub fn tx_pages(&mut self) -> impl Iterator<Item = &mut Page> {
        self.tx.values_mut()
    }

    /// The transaction committed: its pages now wait for the checkpoint.
    pub fn end_tx(&mut self) {
        self.committed.append(&mut self.tx);
    }

    /// Checkpoint step: write every committed page to the heap, in id
    /// order, and fsync it.
    pub fn flush_dirty(&mut self) -> Result<()> {
        for (id, mut page) in std::mem::take(&mut self.committed) {
            self.file
                .seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))
                .and_then(|_| self.file.write_all(page.sealed_bytes()))
                .map_err(|e| Error::storage(format!("heap write page {id}: {e}")))?;
            self.writes += 1;
        }
        self.file
            .sync_data()
            .map_err(|e| Error::storage(format!("heap fsync: {e}")))
    }

    /// Heap pages read from disk.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Heap pages written to disk (checkpoints only).
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_heap(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tcdm_pager_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("heap")
    }

    fn heap_len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    #[test]
    fn write_flush_reopen_read() {
        let path = temp_heap("roundtrip");
        {
            let mut pager = Pager::open(&path).unwrap();
            assert_eq!(pager.file_pages(), 0, "fresh heap");
            let id = pager.allocate();
            assert_eq!(id, 1, "page 0 stays reserved");
            let mut page = Page::new(id);
            page.push_cell(b"cell").unwrap();
            pager.write(page);
            pager.end_tx();
            pager.flush_dirty().unwrap();
        }
        let mut pager = Pager::open(&path).unwrap();
        assert_eq!(pager.file_pages(), 2);
        let page = pager.read(1).unwrap();
        assert_eq!(page.cell(0), b"cell");
        assert_eq!(pager.reads(), 1);
    }

    #[test]
    fn allocation_prefers_smallest_free_id() {
        let path = temp_heap("alloc");
        let mut pager = Pager::open(&path).unwrap();
        let a = pager.allocate();
        let b = pager.allocate();
        let c = pager.allocate();
        assert_eq!((a, b, c), (1, 2, 3));
        pager.free_page(c);
        pager.free_page(a);
        pager.free_page(a); // double-free is harmless
        assert_eq!(pager.allocate(), 1);
        assert_eq!(pager.allocate(), 3);
        assert_eq!(pager.allocate(), 4);
    }

    #[test]
    fn no_page_reaches_the_heap_before_commit_and_checkpoint() {
        let path = temp_heap("no_steal");
        let mut pager = Pager::open(&path).unwrap();
        for _ in 0..1000 {
            let id = pager.allocate();
            let mut p = Page::new(id);
            p.push_cell(&id.to_le_bytes()).unwrap();
            pager.write(p);
        }
        // Far more pages than any fixed budget: none is stolen.
        assert_eq!((pager.writes(), heap_len(&path)), (0, 0));
        let ids: Vec<u32> = pager.tx_pages().map(|p| p.id()).collect();
        assert_eq!(ids, (1..=1000).collect::<Vec<_>>(), "logged in id order");
        // Committed pages wait for the checkpoint, not for pressure.
        pager.end_tx();
        assert_eq!(pager.tx_pages().count(), 0);
        assert_eq!((pager.writes(), heap_len(&path)), (0, 0));
        // A freed page still waiting is dropped, in or out of a
        // transaction.
        pager.free_page(1000);
        let id = pager.allocate();
        assert_eq!(id, 1000);
        pager.write(Page::new(id));
        pager.free_page(id);
        pager.end_tx();
        pager.flush_dirty().unwrap();
        assert_eq!(pager.writes(), 999);
        assert_eq!(heap_len(&path), 1000 * PAGE_SIZE as u64);
        let p = pager.read(999).unwrap();
        assert_eq!(p.cell(0), &999u32.to_le_bytes());
        // The checkpoint drained the committed pages.
        pager.flush_dirty().unwrap();
        assert_eq!(pager.writes(), 999);
    }
}
