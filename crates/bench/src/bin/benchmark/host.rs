//! The host-speed reference behind the two gated timings, `op_ms` and
//! `setup_s`.
//!
//! The sandbox is a small virtual machine on a shared host. Its speed
//! moves by 10–40 % over minutes — every workload slows down and recovers
//! together, with no steal time to show for it — so two runs of the same
//! code, minutes apart, differ by more than any bound worth gating on,
//! and no statistic taken inside one run can tell a slow program from a
//! slow quarter of an hour. What can is a second measurement taken at the
//! same moment that does not depend on the program: a fixed piece of
//! work from the standard library only (allocate, format, key into a map,
//! clone, sort — the same kind of memory traffic the engine makes), timed
//! before and after every operation.
//!
//! Measured over twelve 15 s runs of each workload, seeds 1–12, on a
//! host whose reference reading moved between 12 and 40 ms: the run
//! medians of operation time `t` and reference time `r` followed
//! `t ∝ r^a` with `a` = 0.54 (`basket_cold`), 0.54
//! (`basket_rule_explosion`), 0.57 (`retail_temporal`), 0.66
//! (`refine_session`) and 0.35 (`durable_dml`, a third of which is file
//! I/O), and set-up times with `a` = 0.45–0.76 — the reference feels a
//! busy neighbour about twice as strongly as the engine does. A gated
//! timing is therefore reported *at quiet-host speed*,
//!
//! ```text
//! corrected = measured × (QUIET_REF_MS ÷ reference beside it) ^ 0.5
//! ```
//!
//! with 0.35 in place of 0.5 for a `durable_dml` pass. Over those sixty
//! runs that took the run-to-run spread (quartile distance ÷ median) of
//! `op_ms` from 0.09–0.22 to 0.02–0.06 and of `setup_s` from 0.08–0.14 to
//! 0.03–0.07. On a quiet host the factor is 1 and `op_ms` is the plain
//! median.
//! Everything else the benchmark reports — `mine_cold_ms` and the other
//! workload-specific timings, every per-layer time — is as measured;
//! `host.ref_ms` and `host.factor` say how quiet the run was.

use std::collections::BTreeMap;
use std::time::Instant;

/// What one reading of the reference takes on this sandbox when no
/// neighbour is busy. Another machine shifts every corrected timing by
/// one constant factor, which no comparison of two commits notices.
pub const QUIET_REF_MS: f64 = 15.0;

/// How strongly the engine's in-memory operations and every set-up
/// follow the reference (see the module docs for the fit).
pub const MEMORY_EXPONENT: f64 = 0.5;

/// One pass of the reference work; returns something to keep it alive.
fn reference_work() -> usize {
    let mut groups: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for i in 0..60_000u32 {
        groups
            .entry(format!("k{}", i % 5_000))
            .or_default()
            .push(format!("v{i}"));
    }
    groups
        .values()
        .map(|members| {
            let mut sorted = members.clone();
            sorted.sort();
            sorted.len()
        })
        .sum()
}

fn reading_ms() -> f64 {
    let start = Instant::now();
    std::hint::black_box(reference_work());
    start.elapsed().as_secs_f64() * 1e3
}

/// Reads the reference between operations and turns each pair of
/// neighbouring readings into the correction for what ran between them.
#[derive(Debug)]
pub struct Probe {
    /// Readings since (and including) the one that closed the previous
    /// interval: `(sum, count)`.
    open: (f64, usize),
    exponent: f64,
    readings: Vec<f64>,
    factors: Vec<f64>,
    spent_ms: f64,
}

impl Probe {
    /// Warm the reference up once (discarded) and take the first reading.
    /// `exponent` is how strongly the timings to correct follow the
    /// reference.
    pub fn start(exponent: f64) -> Probe {
        reading_ms();
        let first = reading_ms();
        Probe {
            open: (first, 1),
            exponent,
            readings: vec![first],
            factors: Vec::new(),
            spent_ms: 0.0,
        }
    }

    /// Take a reading in the middle of an operation long enough for the
    /// host to change under it (a `durable_dml` pass, at its phase
    /// boundaries). The caller takes [`Probe::spent_ms`] off its timing.
    pub fn reading(&mut self) -> f64 {
        let now = reading_ms();
        self.open = (self.open.0 + now, self.open.1 + 1);
        self.readings.push(now);
        self.spent_ms += now;
        now
    }

    /// Take a reading and return the factor that brings a timing taken
    /// since the previous call to quiet-host speed: from the mean of the
    /// reading that call took, this one, and any taken in between.
    pub fn factor(&mut self) -> f64 {
        let now = self.reading();
        let beside = self.open.0 / self.open.1 as f64;
        self.open = (now, 1);
        let factor = (QUIET_REF_MS / beside).powf(self.exponent);
        self.factors.push(factor);
        factor
    }

    /// Every reading so far, in milliseconds.
    pub fn readings(&self) -> &[f64] {
        &self.readings
    }

    /// Every factor handed out so far.
    pub fn factors(&self) -> &[f64] {
        &self.factors
    }

    /// Wall-clock spent taking readings so far, for a caller that times
    /// an interval readings fall into.
    pub fn spent_ms(&self) -> f64 {
        self.spent_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_does_the_same_work_every_time() {
        assert_eq!(reference_work(), 60_000);
        assert_eq!(reference_work(), 60_000);
    }

    #[test]
    fn the_factor_is_the_root_of_quiet_over_the_mean_of_both_readings() {
        let mut probe = Probe {
            open: (4.0 * QUIET_REF_MS, 1),
            exponent: MEMORY_EXPONENT,
            readings: Vec::new(),
            factors: Vec::new(),
            spent_ms: 0.0,
        };
        let factor = probe.factor();
        // One real reading, averaged with a pretended earlier one.
        assert!(factor > 0.0 && factor.is_finite());
        assert_eq!(probe.factors(), [factor]);
        assert_eq!(probe.readings().len(), 1);
        assert!((probe.spent_ms() - probe.readings()[0]).abs() < 1e-9);
        let beside = (4.0 * QUIET_REF_MS + probe.readings()[0]) / 2.0;
        assert!((factor - (QUIET_REF_MS / beside).sqrt()).abs() < 1e-12);
    }
}
