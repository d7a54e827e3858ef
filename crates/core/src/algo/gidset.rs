//! Hybrid group-id set representation for the pool's hot loops.
//!
//! Every pool member that mines vertically (apriori-gidlist, eclat, and
//! the partition/sampling passes built on them) bottoms out in
//! intersections of sorted group-id lists. Zaki's Eclat line of work and
//! the partition paper both observe that the *physical* representation of
//! those sets — id list vs. bitvector — dominates mining runtime, and
//! that the best choice flips with density. [`GidSet`] captures both
//! representations behind one type:
//!
//! * **List** — the existing sorted `Vec<u32>`, intersected by merge or,
//!   for skewed pairs, by galloping (exponential) search;
//! * **Bits** — a dense 64-bit-word bitset over the gid universe,
//!   intersected word-wise with AND + popcount.
//!
//! The representation is chosen *per set* by a density heuristic
//! (bitset once `len * 32 > universe`, i.e. when the list form would
//! occupy more bits than the bitset form — see [`GidSetCtx::build`]).
//! A list-only context is kept as the reference the hybrid form is
//! tested against.
//!
//! **Determinism.** The choice depends only on the set's cardinality and
//! the universe size, both of which are worker-count invariant under the
//! ShardExec contract (contiguous shards merged in shard order), and the
//! logical content of every intersection is representation independent.
//! Hence mined inventories are bit-identical to the list-only ones at
//! every worker count — enforced by `tests/gidset_agreement.rs`.

use std::sync::atomic::{AtomicU64, Ordering};

use super::itemset::intersect_into;

/// List elements are 32 bits each, bitset slots one bit each — so the
/// bitset becomes the smaller encoding once `len * 32 > universe`.
const LIST_BITS_PER_ELEMENT: usize = 32;

/// A set of group identifiers in one of two physical forms. Logical
/// equality (same gids) is what the mining contract depends on; the
/// derived `PartialEq` is intentionally representation sensitive and only
/// used in tests that pin the chosen form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GidSet {
    /// Strictly ascending gid list.
    List(Vec<u32>),
    /// Dense bitset over `0..universe`; `len` caches the popcount.
    Bits { words: Vec<u64>, len: u32 },
}

impl GidSet {
    /// Cardinality (the itemset's support count).
    pub fn len(&self) -> u32 {
        match self {
            GidSet::List(l) => l.len() as u32,
            GidSet::Bits { len, .. } => *len,
        }
    }

    /// True when the set holds no gids.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the set is in bitset form.
    pub fn is_bitset(&self) -> bool {
        matches!(self, GidSet::Bits { .. })
    }

    /// Membership test.
    pub fn contains(&self, gid: u32) -> bool {
        match self {
            GidSet::List(l) => l.binary_search(&gid).is_ok(),
            GidSet::Bits { words, .. } => words
                .get((gid >> 6) as usize)
                .is_some_and(|w| w >> (gid & 63) & 1 == 1),
        }
    }

    /// The gids in ascending order (allocates for bitsets).
    pub fn to_sorted_list(&self) -> Vec<u32> {
        match self {
            GidSet::List(l) => l.clone(),
            GidSet::Bits { words, len } => {
                let mut out = Vec::with_capacity(*len as usize);
                push_bits(words, &mut out);
                out
            }
        }
    }
}

/// Append the set bit positions of `words` to `out`, ascending.
fn push_bits(words: &[u64], out: &mut Vec<u32>) {
    for (wi, &word) in words.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            let bit = w.trailing_zeros();
            out.push((wi as u32) << 6 | bit);
            w &= w - 1;
        }
    }
}

/// Representation-choice and intersection counters, owned by the
/// executor and drained into `ExecStats` (→ `core.gidset.*` telemetry).
/// Atomics so shard closures can record without a lock on the data path;
/// all three are worker-count invariant by the determinism contract.
#[derive(Debug, Default)]
pub struct GidSetCounters {
    /// Sets materialised in list form.
    pub list_picked: AtomicU64,
    /// Sets materialised in bitset form.
    pub bitset_picked: AtomicU64,
    /// Intersections performed (materialising or count-only).
    pub intersects: AtomicU64,
}

impl GidSetCounters {
    /// Drain `(list_picked, bitset_picked, intersects)`, resetting to 0.
    pub fn drain(&self) -> (u64, u64, u64) {
        (
            self.list_picked.swap(0, Ordering::Relaxed),
            self.bitset_picked.swap(0, Ordering::Relaxed),
            self.intersects.swap(0, Ordering::Relaxed),
        )
    }
}

/// Per-run context: the gid universe size (support denominator domain),
/// whether every set stays a list (the reference representation), and
/// the counters to record into. `Copy`, so shard closures can capture it
/// by value.
#[derive(Debug, Clone, Copy)]
pub struct GidSetCtx<'a> {
    universe: usize,
    list_only: bool,
    counters: &'a GidSetCounters,
}

/// Which scratch buffer holds the last intersection result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum ScratchKind {
    #[default]
    List,
    Words,
}

/// Reusable intersection buffers: one per shard closure, so the hot loop
/// never allocates for candidates that fail the support threshold.
#[derive(Debug, Default)]
pub struct GidSetScratch {
    list: Vec<u32>,
    words: Vec<u64>,
    kind: ScratchKind,
    len: u32,
}

impl<'a> GidSetCtx<'a> {
    /// A context over `universe` gids recording into `counters`;
    /// `list_only` disables the density heuristic.
    pub fn new(universe: usize, list_only: bool, counters: &'a GidSetCounters) -> GidSetCtx<'a> {
        GidSetCtx {
            universe,
            list_only,
            counters,
        }
    }

    /// The gid universe size this context builds sets over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Should a set of `len` gids be a bitset?
    fn pick_bitset(&self, len: usize) -> bool {
        !self.list_only && len * LIST_BITS_PER_ELEMENT > self.universe
    }

    fn words_len(&self) -> usize {
        self.universe.div_ceil(64)
    }

    /// Build a set from a strictly ascending gid list, choosing the
    /// representation by the density heuristic.
    pub fn build(&self, sorted: Vec<u32>) -> GidSet {
        if self.pick_bitset(sorted.len()) {
            self.counters.bitset_picked.fetch_add(1, Ordering::Relaxed);
            let mut words = vec![0u64; self.words_len()];
            let len = sorted.len() as u32;
            for &g in &sorted {
                words[(g >> 6) as usize] |= 1u64 << (g & 63);
            }
            GidSet::Bits { words, len }
        } else {
            self.counters.list_picked.fetch_add(1, Ordering::Relaxed);
            GidSet::List(sorted)
        }
    }

    /// Intersect `a ∩ b` into `scratch` without materialising a [`GidSet`];
    /// returns the support count. Call [`GidSetCtx::seal`] afterwards to
    /// materialise survivors — candidates below threshold cost no
    /// allocation beyond the reused buffers.
    pub fn intersect_into(&self, a: &GidSet, b: &GidSet, scratch: &mut GidSetScratch) -> u32 {
        self.counters.intersects.fetch_add(1, Ordering::Relaxed);
        match (a, b) {
            (GidSet::List(x), GidSet::List(y)) => {
                intersect_into(x, y, &mut scratch.list);
                scratch.kind = ScratchKind::List;
                scratch.len = scratch.list.len() as u32;
            }
            (GidSet::Bits { words: x, .. }, GidSet::Bits { words: y, .. }) => {
                scratch.words.clear();
                scratch.words.extend(x.iter().zip(y).map(|(a, b)| a & b));
                scratch.kind = ScratchKind::Words;
                scratch.len = scratch.words.iter().map(|w| w.count_ones()).sum::<u32>();
            }
            (GidSet::List(l), bits @ GidSet::Bits { .. })
            | (bits @ GidSet::Bits { .. }, GidSet::List(l)) => {
                scratch.list.clear();
                scratch
                    .list
                    .extend(l.iter().copied().filter(|&g| bits.contains(g)));
                scratch.kind = ScratchKind::List;
                scratch.len = scratch.list.len() as u32;
            }
        }
        scratch.len
    }

    /// Materialise the last [`GidSetCtx::intersect_into`] result, choosing
    /// the representation for the *result's* cardinality.
    pub fn seal(&self, scratch: &GidSetScratch) -> GidSet {
        match scratch.kind {
            ScratchKind::List => self.build(scratch.list.clone()),
            ScratchKind::Words => {
                if self.pick_bitset(scratch.len as usize) {
                    self.counters.bitset_picked.fetch_add(1, Ordering::Relaxed);
                    GidSet::Bits {
                        words: scratch.words.clone(),
                        len: scratch.len,
                    }
                } else {
                    self.counters.list_picked.fetch_add(1, Ordering::Relaxed);
                    let mut out = Vec::with_capacity(scratch.len as usize);
                    push_bits(&scratch.words, &mut out);
                    GidSet::List(out)
                }
            }
        }
    }

    /// Count `|a ∩ b|` without materialising anything (zero-copy support
    /// counting: word-AND + popcount for bitsets, gallop/merge count for
    /// lists, membership probes for mixed pairs).
    pub fn intersect_len(&self, a: &GidSet, b: &GidSet) -> u32 {
        self.counters.intersects.fetch_add(1, Ordering::Relaxed);
        match (a, b) {
            (GidSet::List(x), GidSet::List(y)) => intersect_len_lists(x, y),
            (GidSet::Bits { words: x, .. }, GidSet::Bits { words: y, .. }) => x
                .iter()
                .zip(y)
                .map(|(a, b)| (a & b).count_ones())
                .sum::<u32>(),
            (GidSet::List(l), bits @ GidSet::Bits { .. })
            | (bits @ GidSet::Bits { .. }, GidSet::List(l)) => {
                l.iter().filter(|&&g| bits.contains(g)).count() as u32
            }
        }
    }

    /// Materialised intersection (convenience over intersect_into + seal).
    pub fn intersect(&self, a: &GidSet, b: &GidSet) -> GidSet {
        let mut scratch = GidSetScratch::default();
        self.intersect_into(a, b, &mut scratch);
        self.seal(&scratch)
    }
}

/// Count-only merge/gallop intersection of two strictly ascending lists
/// (the counting twin of `itemset::intersect_into`).
fn intersect_len_lists(a: &[u32], b: &[u32]) -> u32 {
    let (small, big) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.len() * super::itemset::GALLOP_FACTOR < big.len() {
        let mut base = 0usize;
        let mut count = 0u32;
        for &x in small {
            let tail = &big[base..];
            if tail.is_empty() {
                break;
            }
            let mut step = 1usize;
            while step < tail.len() && tail[step] < x {
                step <<= 1;
            }
            let end = (step + 1).min(tail.len());
            match tail[..end].binary_search(&x) {
                Ok(i) => {
                    count += 1;
                    base += i + 1;
                }
                Err(i) => base += i,
            }
        }
        return count;
    }
    let (mut i, mut j, mut count) = (0, 0, 0u32);
    while i < small.len() && j < big.len() {
        match small[i].cmp(&big[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The production context: representation picked by density.
    fn ctx(universe: usize, counters: &GidSetCounters) -> GidSetCtx<'_> {
        GidSetCtx::new(universe, false, counters)
    }

    #[test]
    fn density_heuristic_picks_by_len() {
        let counters = GidSetCounters::default();
        let c = ctx(320, &counters);
        // 320-bit universe: list of ≤10 stays a list (10 * 32 = 320 ≯ 320).
        assert!(!c.build((0..10).collect()).is_bitset());
        assert!(c.build((0..11).collect()).is_bitset());
        let (l, b, _) = counters.drain();
        assert_eq!((l, b), (1, 1));
    }

    #[test]
    fn pinned_reprs_override_density() {
        let counters = GidSetCounters::default();
        let dense: Vec<u32> = (0..100).collect();
        assert!(ctx(100, &counters).build(dense.clone()).is_bitset());
        let list_only = GidSetCtx::new(100, true, &counters);
        assert!(!list_only.build(dense.clone()).is_bitset());
        // Results stay lists too, however dense.
        let both = list_only.intersect(&list_only.build(dense.clone()), &list_only.build(dense));
        assert!(!both.is_bitset());
        assert_eq!(both.len(), 100);
    }

    #[test]
    fn bitset_roundtrips_and_contains() {
        let counters = GidSetCounters::default();
        let gids = vec![0, 1, 63, 64, 65, 127, 200];
        let set = ctx(201, &counters).build(gids.clone());
        assert!(set.is_bitset(), "7 * 32 > 201");
        assert_eq!(set.len(), gids.len() as u32);
        assert_eq!(set.to_sorted_list(), gids);
        assert!(set.contains(63) && set.contains(200));
        assert!(!set.contains(2) && !set.contains(199));
        assert!(!set.contains(10_000), "out of universe");
    }

    #[test]
    fn intersections_agree_across_representation_pairs() {
        let counters = GidSetCounters::default();
        let a: Vec<u32> = (0..300).filter(|g| g % 3 == 0).collect();
        let b: Vec<u32> = (0..300).filter(|g| g % 5 == 0).collect();
        let expect: Vec<u32> = (0..300).filter(|g| g % 15 == 0).collect();
        let auto = ctx(300, &counters);
        let as_list = |v: &[u32]| GidSet::List(v.to_vec());
        let as_bits = |v: &[u32]| auto.build(v.to_vec());
        assert!(as_bits(&a).is_bitset() && as_bits(&b).is_bitset());
        let pairs: Vec<(GidSet, GidSet)> = vec![
            (as_list(&a), as_list(&b)),
            (as_bits(&a), as_bits(&b)),
            (as_list(&a), as_bits(&b)),
            (as_bits(&a), as_list(&b)),
        ];
        for (x, y) in &pairs {
            let got = auto.intersect(x, y);
            assert_eq!(got.to_sorted_list(), expect);
            assert_eq!(auto.intersect_len(x, y) as usize, expect.len());
            let mut scratch = GidSetScratch::default();
            assert_eq!(
                auto.intersect_into(x, y, &mut scratch) as usize,
                expect.len()
            );
        }
    }

    #[test]
    fn scratch_reuse_is_clean_between_calls() {
        let counters = GidSetCounters::default();
        let c = GidSetCtx::new(64, true, &counters);
        let mut scratch = GidSetScratch::default();
        let a = GidSet::List(vec![1, 2, 3, 4, 5]);
        let b = GidSet::List(vec![2, 4, 6]);
        assert_eq!(c.intersect_into(&a, &b, &mut scratch), 2);
        assert_eq!(c.seal(&scratch).to_sorted_list(), vec![2, 4]);
        // A second, disjoint intersection must not see stale contents.
        let d = GidSet::List(vec![9]);
        assert_eq!(c.intersect_into(&a, &d, &mut scratch), 0);
        assert!(c.seal(&scratch).is_empty());
    }

    #[test]
    fn gallop_count_matches_merge_count() {
        // Skewed pair: triggers the galloping path in intersect_len_lists.
        let small = vec![5, 100, 101, 900, 2047];
        let big: Vec<u32> = (0..2048).collect();
        assert_eq!(intersect_len_lists(&small, &big), 5);
        let sparse_big: Vec<u32> = (0..2048).step_by(2).collect();
        assert_eq!(intersect_len_lists(&small, &sparse_big), 2, "100 and 900");
        assert_eq!(intersect_len_lists(&[], &big), 0);
    }

    #[test]
    fn counters_drain_and_reset() {
        let counters = GidSetCounters::default();
        let c = ctx(32, &counters);
        let a = c.build(vec![1, 2, 3]);
        let b = c.build(vec![2, 3, 4]);
        c.intersect_len(&a, &b);
        let (l, b_picked, i) = counters.drain();
        assert_eq!(l + b_picked, 2);
        assert_eq!(i, 1);
        assert_eq!(counters.drain(), (0, 0, 0), "reset after drain");
    }
}
