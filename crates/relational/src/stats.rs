//! Distinct-count sketch behind the cost-based planner's statistics.
//!
//! A table keeps no statistics of its own: [`crate::Table::distinct`]
//! folds one column of the current rows through a [`ColumnStats`] the
//! first time the planner (or `EXPLAIN`) asks, remembers the answer for
//! that table version and forgets it on the next mutation — the policy
//! hash indexes follow. The row count is the table's own `row_count()`.
//!
//! The estimator is exact up to [`KMV_K`] distinct values and degrades to
//! a KMV ("k minimum values") sketch beyond that: it keeps the `k`
//! smallest 64-bit value hashes seen and estimates the distinct count as
//! `(k - 1) / max_kept` on the unit interval. The sketch is insertion
//! -order independent and deterministic (the hasher is keyed with fixed
//! zeros), which keeps planner decisions — and therefore rule outputs —
//! reproducible across runs and worker counts.

use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use crate::value::Value;

/// Sketch capacity: exact up to this many distinct values per column,
/// KMV-estimated above. 256 bounds the error near 6% while keeping the
/// per-column footprint at 2 KiB.
pub const KMV_K: usize = 256;

fn value_hash(v: &Value) -> u64 {
    // DefaultHasher::new() is SipHash with fixed zero keys: deterministic
    // across processes, which the planner's reproducibility contract needs.
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Distinct-count estimator for one column: the `k` smallest value hashes.
#[derive(Debug, Clone, Default)]
pub struct ColumnStats {
    /// The `KMV_K` smallest hashes seen (BTreeSet keeps them ordered so
    /// eviction of the largest is O(log k)).
    sketch: BTreeSet<u64>,
    /// True once a hash not already kept was evicted from, or refused
    /// by, the full sketch — from then on the count is an estimate, not
    /// exact.
    saturated: bool,
}

impl ColumnStats {
    /// Fold one value into the sketch. NULLs are counted like any other
    /// value: the planner cares about key multiplicity, and NULL join keys
    /// collide with nothing, so one extra "distinct" is the safe direction.
    pub fn observe(&mut self, v: &Value) {
        let h = value_hash(v);
        if self.sketch.len() < KMV_K {
            self.sketch.insert(h);
        } else if let Some(&max) = self.sketch.iter().next_back() {
            if h > max {
                self.saturated = true;
            } else if self.sketch.insert(h) {
                self.sketch.remove(&max);
                self.saturated = true;
            }
        }
    }

    /// Estimated number of distinct values. Exact while fewer than
    /// [`KMV_K`] distinct values have been seen.
    pub fn distinct(&self) -> u64 {
        if !self.saturated {
            return self.sketch.len() as u64;
        }
        let Some(&max) = self.sketch.iter().next_back() else {
            return 0;
        };
        // KMV estimate: k-th smallest hash at fraction max/2^64 of the
        // unit interval implies (k-1)/fraction distinct values.
        let fraction = (max as f64) / (u64::MAX as f64);
        if fraction <= 0.0 {
            return self.sketch.len() as u64;
        }
        ((self.sketch.len() as f64 - 1.0) / fraction).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_sketch_capacity() {
        let mut c = ColumnStats::default();
        for i in 0..100 {
            c.observe(&Value::Int(i));
        }
        assert_eq!(c.distinct(), 100);
        // Re-observing existing values changes nothing.
        for i in 0..100 {
            c.observe(&Value::Int(i));
        }
        assert_eq!(c.distinct(), 100);
    }

    #[test]
    fn estimate_within_tolerance_above_capacity() {
        let mut c = ColumnStats::default();
        let n = 10_000i64;
        for i in 0..n {
            c.observe(&Value::Int(i));
        }
        let est = c.distinct() as f64;
        let err = (est - n as f64).abs() / n as f64;
        assert!(err < 0.15, "estimate {est} for {n} distinct (err {err:.3})");
    }

    #[test]
    fn estimate_is_insertion_order_independent() {
        let mut fwd = ColumnStats::default();
        let mut rev = ColumnStats::default();
        for i in 0..5_000i64 {
            fwd.observe(&Value::Int(i));
            rev.observe(&Value::Int(4_999 - i));
        }
        assert_eq!(fwd.distinct(), rev.distinct());
    }

    #[test]
    fn exactly_k_distinct_values_with_duplicates_is_exact_in_any_order() {
        let k = KMV_K as i64;
        // Duplicates arriving at a full sketch, below and at its maximum,
        // evict nothing: the count stays exact whatever the order.
        let orders: [Vec<i64>; 3] = [
            (0..k).chain(0..k).collect(),
            (0..k).rev().chain(0..k).collect(),
            (0..2 * k).map(|i| i % k).rev().collect(),
        ];
        for order in orders {
            let mut c = ColumnStats::default();
            for i in order {
                c.observe(&Value::Int(i));
            }
            assert_eq!(c.distinct(), KMV_K as u64);
        }
        // One more distinct value does saturate, evicted or refused.
        let mut c = ColumnStats::default();
        for i in 0..=k {
            c.observe(&Value::Int(i));
        }
        assert!(c.saturated);
    }

    #[test]
    fn nulls_count_as_one_distinct() {
        let mut c = ColumnStats::default();
        c.observe(&Value::Null);
        c.observe(&Value::Null);
        c.observe(&Value::Int(1));
        assert_eq!(c.distinct(), 2);
    }
}
