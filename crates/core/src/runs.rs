//! Sorted runs of packed ids: the ordering primitives that the fused
//! pair stage ([`crate::preprocess`]) and the general core's context
//! build ([`crate::lattice::elementary`]) share. Two `u32` ids pack into
//! one `u64` key, and a stable radix sort orders `(key, id)` entries in
//! one linear pass per digit in which the keys differ — a pass or two for
//! the dense ids the id sequences draw — with no comparison sort and no
//! hash map.

/// Two ids as one sort key, the first one major.
pub(crate) fn pack(a: u32, b: u32) -> u64 {
    u64::from(a) << 32 | u64::from(b)
}

/// Sort `(key, id)` entries stably by key: an LSD radix sort with one
/// counting pass per digit in which the keys differ, each digit within
/// one 32-bit half, so ids below 2048 take one pass each. Linear in the
/// entries, whatever the ids.
pub(crate) fn radix_sort(entries: &mut Vec<(u64, u32)>) {
    if entries.windows(2).all(|w| w[0].0 <= w[1].0) {
        return;
    }
    let varying = entries
        .iter()
        .fold(0, |bits, e| bits | (e.0 ^ entries[0].0));
    let mut spare = vec![(0, 0); entries.len()];
    for digit in [0, 11, 22, 32, 43, 54, 64].windows(2) {
        let (shift, mask) = (digit[0], (1usize << (digit[1] - digit[0])) - 1);
        if (varying >> shift) as usize & mask == 0 {
            continue;
        }
        let mut counts = vec![0usize; mask + 1];
        for &(key, _) in entries.iter() {
            counts[(key >> shift) as usize & mask] += 1;
        }
        let mut at = 0;
        for count in counts.iter_mut() {
            (at, *count) = (at + *count, at);
        }
        for &entry in entries.iter() {
            let slot = &mut counts[(entry.0 >> shift) as usize & mask];
            spare[*slot] = entry;
            *slot += 1;
        }
        std::mem::swap(entries, &mut spare);
    }
}

/// `(key, id)` entries as one ascending deduplicated id list per key, in
/// key order: only the lists `keep` admits. Ids that arrive ascending
/// cost the per-key sort one pass.
pub(crate) fn grouped(
    mut entries: Vec<(u64, u32)>,
    keep: impl Fn(&[u32]) -> bool,
) -> Vec<(u64, Vec<u32>)> {
    radix_sort(&mut entries);
    let (mut lists, mut ids) = (Vec::new(), Vec::new());
    for run in entries.chunk_by(|a, b| a.0 == b.0) {
        ids.clear();
        ids.extend(run.iter().map(|&(_, id)| id));
        ids.sort_unstable();
        ids.dedup();
        if keep(&ids) {
            lists.push((run[0].0, ids.clone()));
        }
    }
    lists
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radix_sort_is_a_stable_sort_by_key() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [0, 1, 2, 7, 300, 5000] {
            // Keys spread over both halves and every digit, with repeats.
            let entries: Vec<(u64, u32)> = (0..len)
                .map(|at| (next() & 0x0fff_f00f_ffff_ffff & next(), at))
                .collect();
            let mut expected = entries.clone();
            expected.sort_by_key(|e| e.0);
            let mut sorted = entries;
            radix_sort(&mut sorted);
            assert_eq!(sorted, expected, "{len} entries");
        }
    }

    #[test]
    fn grouped_folds_runs_and_keeps_the_admitted_lists() {
        let entries = vec![
            (pack(2, 1), 0),
            (pack(1, 9), 1),
            (pack(2, 1), 1),
            (pack(2, 1), 1),
        ];
        assert_eq!(
            grouped(entries.clone(), |_| true),
            [(pack(1, 9), vec![1]), (pack(2, 1), vec![0, 1])]
        );
        assert_eq!(
            grouped(entries, |ids| ids.len() > 1),
            [(pack(2, 1), vec![0, 1])]
        );
    }
}
