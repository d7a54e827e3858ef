//! The fixed-size slotted page: the unit of disk I/O, caching and
//! write-ahead logging.
//!
//! Every page is [`PAGE_SIZE`] bytes with a 16-byte header, a slot
//! directory growing *up* from the header and cell payloads growing
//! *down* from the end — the classical slotted layout:
//!
//! ```text
//!  0         4         8        12    14    16
//!  ┌─────────┬─────────┬─────────┬─────┬─────┬──────────────┬───┈┈───┐
//!  │checksum │ page id │ next id │cells│cell │ slot dir ──▶ │ ◀── cells│
//!  │ (CRC32) │         │(0 = end)│     │start│ (off,len)×n  │        │
//!  └─────────┴─────────┴─────────┴─────┴─────┴──────────────┴───┈┈───┘
//! ```
//!
//! The checksum covers every byte after itself, so a torn write — a
//! page only partially flushed before a crash — is detected on the next
//! read instead of silently decoding garbage. Page id 0 is reserved for
//! the superblock, which is why `next id = 0` can mean "end of chain".
//!
//! ```
//! use relational::storage::page::{Page, MAX_CELL};
//! let mut p = Page::new(7);
//! assert!(p.push_cell(b"hello").unwrap());
//! assert_eq!(p.cell(0), b"hello");
//! assert!(p.free_space() < MAX_CELL);
//! let bytes = p.sealed_bytes().to_vec();
//! let back = Page::from_bytes(&bytes).unwrap();
//! assert_eq!(back.id(), 7);
//! assert_eq!(back.cell_count(), 1);
//! ```

use crate::error::{Error, Result};

/// Size of every page, in bytes. Fixed for the whole store: the heap
/// file is an array of `PAGE_SIZE` slots and a page id is its index.
pub const PAGE_SIZE: usize = 4096;

/// Header bytes before the slot directory.
pub const HEADER: usize = 16;

/// Largest payload one cell can carry (one slot entry + the payload
/// must fit beside the header). Rows above this limit are rejected
/// with a typed storage error — see `docs/STORAGE.md`.
pub const MAX_CELL: usize = PAGE_SIZE - HEADER - SLOT;

const SLOT: usize = 4;

/// One fixed-size slotted page, always resident as a boxed buffer.
#[derive(Debug, Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

fn read_u16(b: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([b[at], b[at + 1]])
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

fn write_u16(b: &mut [u8], at: usize, v: u16) {
    b[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

fn write_u32(b: &mut [u8], at: usize, v: u32) {
    b[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

impl Page {
    /// A fresh, empty page with the given id.
    pub fn new(id: u32) -> Page {
        let mut page = Page {
            data: Box::new([0u8; PAGE_SIZE]),
        };
        write_u32(&mut page.data[..], 4, id);
        write_u32(&mut page.data[..], 8, 0);
        write_u16(&mut page.data[..], 12, 0);
        write_u16(&mut page.data[..], 14, PAGE_SIZE as u16);
        page
    }

    /// Decode a page from raw bytes, verifying length and checksum.
    /// A checksum mismatch means a torn or corrupted write.
    pub fn from_bytes(bytes: &[u8]) -> Result<Page> {
        if bytes.len() != PAGE_SIZE {
            return Err(Error::storage(format!(
                "page image is {} bytes, expected {PAGE_SIZE}",
                bytes.len()
            )));
        }
        let mut page = Page {
            data: Box::new([0u8; PAGE_SIZE]),
        };
        page.data.copy_from_slice(bytes);
        let stored = read_u32(&page.data[..], 0);
        let actual = crc32(&page.data[4..]);
        if stored != actual {
            return Err(Error::storage(format!(
                "checksum mismatch on page {} (stored {stored:#010x}, computed {actual:#010x}) — torn or corrupt write",
                page.id()
            )));
        }
        Ok(page)
    }

    /// This page's id (its index in the heap file).
    pub fn id(&self) -> u32 {
        read_u32(&self.data[..], 4)
    }

    /// The next page in this chain (0 = end of chain).
    pub fn next(&self) -> u32 {
        read_u32(&self.data[..], 8)
    }

    /// Link this page to a successor.
    pub fn set_next(&mut self, next: u32) {
        write_u32(&mut self.data[..], 8, next);
    }

    /// Number of cells stored.
    pub fn cell_count(&self) -> usize {
        read_u16(&self.data[..], 12) as usize
    }

    fn cell_start(&self) -> usize {
        read_u16(&self.data[..], 14) as usize
    }

    /// Bytes still available for one more cell (payload only).
    pub fn free_space(&self) -> usize {
        let used_low = HEADER + SLOT * self.cell_count();
        self.cell_start().saturating_sub(used_low + SLOT)
    }

    /// Append a cell. Returns `Ok(false)` when the page is full and the
    /// caller should chain a new page; errors when the payload can never
    /// fit in any page.
    pub fn push_cell(&mut self, payload: &[u8]) -> Result<bool> {
        if payload.len() > MAX_CELL {
            return Err(Error::storage(format!(
                "cell of {} bytes exceeds the page capacity of {MAX_CELL} bytes",
                payload.len()
            )));
        }
        if self.free_space() < payload.len() {
            return Ok(false);
        }
        let n = self.cell_count();
        let start = self.cell_start() - payload.len();
        self.data[start..start + payload.len()].copy_from_slice(payload);
        let slot_at = HEADER + SLOT * n;
        write_u16(&mut self.data[..], slot_at, start as u16);
        write_u16(&mut self.data[..], slot_at + 2, payload.len() as u16);
        write_u16(&mut self.data[..], 12, (n + 1) as u16);
        write_u16(&mut self.data[..], 14, start as u16);
        Ok(true)
    }

    /// The payload of cell `i` (panics when out of range, like slicing).
    pub fn cell(&self, i: usize) -> &[u8] {
        assert!(i < self.cell_count(), "cell {i} out of range");
        let slot_at = HEADER + SLOT * i;
        let off = read_u16(&self.data[..], slot_at) as usize;
        let len = read_u16(&self.data[..], slot_at + 2) as usize;
        &self.data[off..off + len]
    }

    /// Iterate all cell payloads in insertion order.
    pub fn cells(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.cell_count()).map(move |i| self.cell(i))
    }

    /// Stamp the checksum and return the full on-disk image.
    pub fn sealed_bytes(&mut self) -> &[u8; PAGE_SIZE] {
        let sum = crc32(&self.data[4..]);
        write_u32(&mut self.data[..], 0, sum);
        &self.data
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the same
/// checksum Ethernet, gzip and SQLite's WAL use for torn-write
/// detection. Slicing-by-8: eight 256-entry tables, built at compile
/// time, fold eight bytes per step; the tail is folded a byte at a
/// time through the first table. Same polynomial, same value for every
/// input as the bytewise loop, so every stored checksum is unchanged.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][w[4] as usize]
            ^ CRC_TABLES[2][w[5] as usize]
            ^ CRC_TABLES[1][w[6] as usize]
            ^ CRC_TABLES[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// `CRC_TABLES[0]` is the bytewise table; `CRC_TABLES[k][i]` is the CRC
/// state after byte `i` is followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise table loop `crc32` replaced: the oracle for it.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_slicing_equals_bytewise() {
        // Every length 0..=64 at every start offset 0..8 of one buffer,
        // so every word alignment and every tail length is covered.
        let buf: Vec<u8> = (0..80u32).map(|i| (i * 37 + 11) as u8).collect();
        for off in 0..8 {
            for len in 0..=64 {
                let s = &buf[off..off + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {off} len {len}");
            }
        }
        // Full page images: a zero page, a sealed page with cells, and a
        // page of pseudo-random bytes.
        let mut p = Page::new(5);
        p.push_cell(b"alpha").unwrap();
        p.push_cell(&[0xA5; 300]).unwrap();
        p.set_next(6);
        let sealed = p.sealed_bytes().to_vec();
        let mut x = 0x9E37_79B9u32;
        let noise: Vec<u8> = (0..PAGE_SIZE)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        for image in [vec![0u8; PAGE_SIZE], sealed.clone(), noise] {
            assert_eq!(image.len(), PAGE_SIZE);
            assert_eq!(crc32(&image), crc32_bytewise(&image));
            assert_eq!(crc32(&image[4..]), crc32_bytewise(&image[4..]));
        }
        assert_eq!(read_u32(&sealed, 0), crc32_bytewise(&sealed[4..]));
    }

    #[test]
    fn push_and_read_cells() {
        let mut p = Page::new(3);
        assert!(p.push_cell(b"abc").unwrap());
        assert!(p.push_cell(b"").unwrap());
        assert!(p.push_cell(b"defg").unwrap());
        assert_eq!(p.cell_count(), 3);
        assert_eq!(p.cell(0), b"abc");
        assert_eq!(p.cell(1), b"");
        assert_eq!(p.cell(2), b"defg");
        assert_eq!(p.cells().count(), 3);
    }

    #[test]
    fn fills_up_and_reports_full() {
        let mut p = Page::new(1);
        let payload = [7u8; 100];
        let mut pushed = 0;
        while p.push_cell(&payload).unwrap() {
            pushed += 1;
        }
        // 100-byte payload + 4-byte slot per cell inside the usable area.
        assert_eq!(pushed, (PAGE_SIZE - HEADER) / 104);
        // Existing cells are intact after the failed push.
        assert_eq!(p.cell(0), &payload[..]);
    }

    #[test]
    fn oversized_cell_is_a_typed_error() {
        let mut p = Page::new(1);
        let huge = vec![0u8; MAX_CELL + 1];
        assert!(p.push_cell(&huge).is_err());
        let max = vec![1u8; MAX_CELL];
        assert!(p.push_cell(&max).unwrap());
    }

    #[test]
    fn seal_roundtrip_and_torn_write_detection() {
        let mut p = Page::new(9);
        p.push_cell(b"payload").unwrap();
        p.set_next(11);
        let mut bytes = p.sealed_bytes().to_vec();
        let back = Page::from_bytes(&bytes).unwrap();
        assert_eq!(back.id(), 9);
        assert_eq!(back.next(), 11);
        assert_eq!(back.cell(0), b"payload");
        // Flip one byte anywhere in the body: the checksum catches it.
        bytes[PAGE_SIZE - 1] ^= 0xFF;
        assert!(Page::from_bytes(&bytes).is_err());
        assert!(Page::from_bytes(&bytes[..10]).is_err());
    }
}
