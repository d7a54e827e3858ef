//! Grouping keys: the one hash and the one interner of every keyed
//! operator.
//!
//! A key is the values a row holds at some column positions, compared
//! under [`Value`]'s grouping equality (`1` ≡ `1.0`, `0.0` ≢ `-0.0`, NULLs
//! group together, strings by bytes and length). [`KeyHash`] is the hash
//! every `Vec<Value>`-keyed map of the executor is built with;
//! [`KeyInterner`] maps a key to its dense first-seen slot by probing with
//! the *borrowed* row, so a row that repeats a key allocates nothing.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

use crate::value::Value;

/// Builds [`KeyHasher`]s. Each instance draws its own seed from the
/// process's [`RandomState`] keys, so — as with the default hasher — no
/// two maps share an iteration order and nothing observable can come to
/// depend on one. The hash is a multiply-fold, not SipHash: fast, seeded,
/// but not proof against an adversary who can observe collisions.
#[derive(Debug, Clone)]
pub struct KeyHash {
    seed: u64,
}

impl Default for KeyHash {
    fn default() -> KeyHash {
        KeyHash {
            seed: RandomState::new().build_hasher().finish(),
        }
    }
}

impl BuildHasher for KeyHash {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher(self.seed)
    }
}

/// A map from owned keys, hashed with [`KeyHash`].
pub type KeyMap<V> = HashMap<Vec<Value>, V, KeyHash>;

/// One multiply per word, its state finalised at every step: the 128-bit
/// product's high half is folded into the low half. `std`'s table indexes
/// by the low bits, and a small INT hashes as `f64` bits whose low 32 bits
/// are all zero — unfolded, every such key would land in one bucket.
#[derive(Debug, Clone, Copy)]
pub struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// Eight bytes per step; the last step carries the remaining bytes
    /// (read without a copy: first, middle and last of up to three, two
    /// overlapping halves of up to seven) with the length folded into
    /// its top byte — `""` ≠ `"\0"`, `"ab"` ≠ `"ab\0"`, and strings equal
    /// up to an 8-byte boundary differ in their number of steps.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        let half = |at: usize| {
            let half: [u8; 4] = rest[at..at + 4].try_into().expect("4 bytes");
            u64::from(u32::from_le_bytes(half))
        };
        let last = match rest.len() {
            0 => 0,
            n @ 1..=3 => {
                u64::from(rest[0]) | u64::from(rest[n / 2]) << 8 | u64::from(rest[n - 1]) << 16
            }
            n => half(0) | half(n - 4) << 32,
        };
        self.mix(last ^ (bytes.len() as u64) << 56);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// Table entry of a position nothing was ever stored at.
const EMPTY: u64 = 0;
/// Table entry of a retired key: probes pass over it.
const RETIRED: u64 = 1;

/// Keys of a fixed number of values, each mapped to a dense slot in
/// first-seen order. Slots are never reused: [`KeyInterner::retire`]
/// forgets a key, and interning it again assigns a fresh slot.
///
/// Nothing is hashed but the probing row's own values and nothing is
/// allocated unless the key is new (its values are cloned into one flat
/// vector).
#[derive(Debug, Clone)]
pub struct KeyInterner {
    hash: KeyHash,
    width: usize,
    /// Open addressing with linear probing over a power-of-two length.
    /// An occupied entry is `hash's high half << 32 | slot + 2`: the half
    /// both places the entry and rejects most non-matching probes before
    /// any value is compared, and rebuilding the table needs no key.
    table: Vec<u64>,
    /// Entries that are not [`EMPTY`]; kept to at most half the table.
    used: usize,
    live: usize,
    /// The key of slot `s` at `s * width..`, retired slots included.
    values: Vec<Value>,
    slots: u32,
}

impl KeyInterner {
    /// An empty interner for keys of `width` values.
    pub fn new(width: usize) -> KeyInterner {
        KeyInterner {
            hash: KeyHash::default(),
            width,
            table: Vec::new(),
            used: 0,
            live: 0,
            values: Vec::new(),
            slots: 0,
        }
    }

    /// Keys currently mapped.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no key is mapped.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots ever assigned, retired ones included.
    pub fn slots(&self) -> u32 {
        self.slots
    }

    /// The key of `slot` (a retired slot keeps its key).
    pub fn key(&self, slot: u32) -> &[Value] {
        let at = slot as usize * self.width;
        &self.values[at..at + self.width]
    }

    /// Every key by slot, retired slots included.
    pub fn keys(&self) -> impl Iterator<Item = &[Value]> {
        (0..self.slots).map(|slot| self.key(slot))
    }

    /// Every mapped key with its slot, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[Value])> {
        let live = self.table.iter().filter(|&&entry| entry > RETIRED);
        live.map(|&entry| (entry as u32 - 2, self.key(entry as u32 - 2)))
    }

    fn hash_of<'a>(&self, key: impl Iterator<Item = &'a Value>) -> u64 {
        let mut hasher = self.hash.build_hasher();
        key.for_each(|value| value.hash(&mut hasher));
        hasher.finish()
    }

    /// Where the key `row` holds at `cols` sits in the table: its slot,
    /// or else the position a new entry for it goes to.
    fn probe(&self, hash: u64, row: &[Value], cols: &[usize]) -> Result<u32, usize> {
        let mask = self.table.len() - 1;
        let tag = hash >> 32;
        let mut at = tag as usize & mask;
        let mut free = None;
        loop {
            match self.table[at] {
                EMPTY => return Err(free.unwrap_or(at)),
                RETIRED => free = free.or(Some(at)),
                entry if entry >> 32 == tag => {
                    let slot = entry as u32 - 2;
                    let key = self.key(slot);
                    if key.iter().zip(cols).all(|(value, &c)| *value == row[c]) {
                        return Ok(slot);
                    }
                }
                _ => {}
            }
            at = (at + 1) & mask;
        }
    }

    /// The slot of the key `row` holds at `cols`, if it is mapped.
    pub fn get(&self, row: &[Value], cols: &[usize]) -> Option<u32> {
        debug_assert_eq!(cols.len(), self.width);
        if self.table.is_empty() {
            return None;
        }
        let hash = self.hash_of(cols.iter().map(|&c| &row[c]));
        self.probe(hash, row, cols).ok()
    }

    /// The slot of the key `row` holds at `cols`; a key not mapped takes
    /// the next slot.
    pub fn intern(&mut self, row: &[Value], cols: &[usize]) -> u32 {
        debug_assert_eq!(cols.len(), self.width);
        if (self.used + 1) * 2 > self.table.len() {
            self.rebuild();
        }
        let hash = self.hash_of(cols.iter().map(|&c| &row[c]));
        let at = match self.probe(hash, row, cols) {
            Ok(slot) => return slot,
            Err(at) => at,
        };
        assert!(self.slots < u32::MAX - 2, "key slots exhausted");
        let slot = self.slots;
        self.used += (self.table[at] == EMPTY) as usize;
        self.table[at] = (hash >> 32) << 32 | u64::from(slot + 2);
        self.values.extend(cols.iter().map(|&c| row[c].clone()));
        self.slots += 1;
        self.live += 1;
        slot
    }

    /// Forget the key of `slot`: it is no longer found, and interning it
    /// again assigns a fresh slot. A slot already retired stays retired.
    pub fn retire(&mut self, slot: u32) {
        let hash = self.hash_of(self.key(slot).iter());
        let mask = self.table.len() - 1;
        let mut at = (hash >> 32) as usize & mask;
        while self.table[at] != EMPTY {
            if self.table[at] > RETIRED && self.table[at] as u32 - 2 == slot {
                self.table[at] = RETIRED;
                self.live -= 1;
                return;
            }
            at = (at + 1) & mask;
        }
    }

    /// Re-place the mapped keys in a table at most a quarter full,
    /// dropping the retired entries.
    fn rebuild(&mut self) {
        let len = (self.live * 4).next_power_of_two().max(16);
        let old = std::mem::replace(&mut self.table, vec![EMPTY; len]);
        // From an empty position on, every run of entries is met in probe
        // order, so entries with equal tags keep theirs.
        let start = old.iter().position(|&entry| entry == EMPTY).unwrap_or(0);
        let in_probe_order = old[start..].iter().chain(&old[..start]);
        for &entry in in_probe_order.filter(|&&entry| entry > RETIRED) {
            let mut at = (entry >> 32) as usize & (len - 1);
            while self.table[at] != EMPTY {
                at = (at + 1) & (len - 1);
            }
            self.table[at] = entry;
        }
        self.used = self.live;
    }
}

/// Equal when the same keys are mapped to the same slots, whatever the
/// two tables' seeds and layouts.
impl PartialEq for KeyInterner {
    fn eq(&self, other: &KeyInterner) -> bool {
        let mapped = |interner: &KeyInterner| {
            let mut slots: Vec<u32> = interner.iter().map(|(slot, _)| slot).collect();
            slots.sort_unstable();
            slots
        };
        self.width == other.width
            && self.slots == other.slots
            && self.values == other.values
            && mapped(self) == mapped(other)
    }
}
