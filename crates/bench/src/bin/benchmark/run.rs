//! Plumbing shared by the workloads: the run configuration, the result
//! accumulator with its built-in verification tally, the repetition
//! budget, and the two `/proc` readers.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use minerule::telemetry::MetricsSnapshot;
use relational::{Database, ExecStats};

use crate::catalog;
use crate::data::{self, Dataset, Fingerprint, Sizes};
use crate::host::{Probe, MEMORY_EXPONENT};
use crate::stats;
use crate::trace::Recorder;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Wall-clock the measuring loop may use. A traced run shares it
    /// evenly between untraced operations and traced ones.
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
}

impl RunConfig {
    /// Set up repeatedly so `setup_s` can be a median — once at quick
    /// scale, else at least five times and for at least a second, so
    /// that a set-up of a few milliseconds is a median of dozens. Each
    /// set-up is timed between two readings of the host reference and
    /// brought to quiet-host speed (see `host.rs`). Records `setup_s` and
    /// the `datagen.*` times; returns the last artifacts.
    pub fn set_up<T>(&self, out: &mut Outcome, mut build: impl FnMut(&mut SetupTimes) -> T) -> T {
        let mut times = SetupTimes::default();
        let mut total = Vec::new();
        let mut probe = Probe::start(MEMORY_EXPONENT);
        let started = Instant::now();
        loop {
            let (artifacts, elapsed) = timed(|| build(&mut times));
            total.push(elapsed / 1e3 * probe.factor());
            let enough = self.sizes.quick
                || (total.len() >= 5 && started.elapsed() >= Duration::from_secs(1));
            if enough {
                out.set_median("setup_s", &total);
                out.set_median("datagen.generate_ms", &times.generate_ms);
                if !times.load_ms.is_empty() {
                    out.set_median("datagen.load_ms", &times.load_ms);
                }
                return artifacts;
            }
        }
    }

    /// A budget over `share` of the run's seconds. A traced run of a
    /// scripted workload gives half to untraced operations, half to
    /// traced ones; the cold workloads alternate the two in one loop.
    pub fn budget(&self, share: f64) -> Budget {
        Budget::new(self.seconds * share, self.sizes.quick)
    }

    /// Share of the run an untraced measuring loop gets when traced
    /// operations follow it in a loop of their own.
    pub fn untraced_share(&self) -> f64 {
        if self.trace {
            0.5
        } else {
            1.0
        }
    }
}

/// What set-up spends inside `datagen`, one sample per repetition.
#[derive(Debug, Default)]
pub struct SetupTimes {
    pub generate_ms: Vec<f64>,
    pub load_ms: Vec<f64>,
}

impl SetupTimes {
    /// Generate a dataset's base shape and apply the seed, timed.
    /// Returns the seeded dataset and the base shape's fingerprint.
    pub fn generate(
        &mut self,
        base: impl FnOnce() -> Dataset,
        seed: u64,
    ) -> (Dataset, Fingerprint) {
        let ((base, dataset), elapsed) = timed(|| {
            let base = base();
            let dataset = data::seeded(&base, seed);
            (base, dataset)
        });
        self.generate_ms.push(elapsed);
        (dataset, base.fingerprint())
    }

    /// Load the dataset into a fresh memory database, timed.
    pub fn load(&mut self, dataset: &Dataset) -> Database {
        let (db, elapsed) = timed(|| dataset.fresh_db());
        self.load_ms.push(elapsed);
        db
    }
}

/// Decides whether a measuring loop runs another repetition: until the
/// time is used up but never fewer than three repetitions, or exactly two
/// at quick scale.
#[derive(Debug)]
pub struct Budget {
    deadline: Instant,
    quick: bool,
    done: usize,
}

impl Budget {
    pub fn new(seconds: f64, quick: bool) -> Budget {
        Budget {
            deadline: Instant::now() + Duration::from_secs_f64(seconds.max(0.0)),
            quick,
            done: 0,
        }
    }

    /// Call once before each repetition.
    pub fn more(&mut self) -> bool {
        let go = if self.quick {
            self.done < 2
        } else {
            self.done < 3 || Instant::now() < self.deadline
        };
        self.done += 1;
        go
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: measured operations plus verification checks.
    pub attempted: u64,
    /// Operations that errored or whose result was verified wrong.
    pub failed: u64,
    /// The first few failure messages, for the human reader.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample count behind each timing metric.
    pub samples: BTreeMap<&'static str, usize>,
    pub trace: Option<Recorder>,
}

impl Outcome {
    /// Count one attempted operation; record it as failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Count an operation that must succeed; `None` when it did not.
    pub fn attempt<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        result: Result<T, E>,
    ) -> Option<T> {
        match result {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Count a pinned fingerprint as one check.
    pub fn check_pin(&mut self, what: &str, pinned: Fingerprint, found: Fingerprint) {
        let show = |f: Fingerprint| format!("({}, {:#018x})", f.0, f.1);
        self.check(pinned == found, || {
            format!(
                "{what} drifted: pinned {}, found {}",
                show(pinned),
                show(found)
            )
        });
    }

    /// Record a metric; the name must be in the catalog.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(Self::catalogued(name), value);
    }

    /// Record a timing metric as the median of its samples.
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        self.set(name, stats::median(samples));
        self.samples.insert(Self::catalogued(name), samples.len());
    }

    /// Record the gated `op_ms` — the median of the operation timings
    /// `probe` brought to quiet-host speed — and how quiet the host was.
    pub fn set_op_ms(&mut self, corrected: &[f64], probe: &Probe) {
        self.set_median("op_ms", corrected);
        self.set_median("host.ref_ms", probe.readings());
        self.set("host.factor", stats::median(probe.factors()));
    }

    fn catalogued(name: &str) -> &'static str {
        catalog::find(name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
            .name
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// The `relational.*` work counters of one operation, from an
    /// [`ExecStats`] delta.
    pub fn set_relational(&mut self, before: ExecStats, after: ExecStats) {
        let d = |b: u64, a: u64| a.saturating_sub(b) as f64;
        self.set(
            "planner.plans",
            d(before.planner_plans, after.planner_plans),
        );
        self.set(
            "planner.reordered_joins",
            d(
                before.planner_reordered_joins,
                after.planner_reordered_joins,
            ),
        );
        self.set(
            "planner.pushed_filters",
            d(before.planner_pushed_filters, after.planner_pushed_filters),
        );
        self.set(
            "planner.est_rows_err",
            d(before.planner_est_rows_err, after.planner_est_rows_err),
        );
        self.set(
            "exec.rows_scanned",
            d(before.rows_scanned, after.rows_scanned),
        );
        self.set(
            "exec.rows_filtered",
            d(before.rows_filtered, after.rows_filtered),
        );
        self.set("exec.rows_joined", d(before.rows_joined, after.rows_joined));
        self.set(
            "expr.programs_compiled",
            d(before.programs_compiled, after.programs_compiled),
        );
        self.set(
            "expr.fallback_ops",
            d(before.compile_fallback_ops, after.compile_fallback_ops),
        );
        self.set(
            "expr.vector_batches",
            d(before.vector_batches, after.vector_batches),
        );
        self.set(
            "expr.vector_fallback_batches",
            d(
                before.vector_fallback_batches,
                after.vector_fallback_batches,
            ),
        );
        self.set("index.built", d(before.indexes_built, after.indexes_built));
        self.set("index.hits", d(before.index_hits, after.index_hits));
        self.set(
            "index.invalidations",
            d(before.index_invalidations, after.index_invalidations),
        );
        self.set(
            "storage.wal_appends",
            d(before.storage_wal_appends, after.storage_wal_appends),
        );
        self.set(
            "storage.wal_fsyncs",
            d(before.storage_wal_fsyncs, after.storage_wal_fsyncs),
        );
        self.set(
            "storage.page_writes",
            d(before.storage_page_writes, after.storage_page_writes),
        );
        self.set(
            "storage.page_reads",
            d(before.storage_page_reads, after.storage_page_reads),
        );
        self.set(
            "storage.cache_hits",
            d(before.storage_cache_hits, after.storage_cache_hits),
        );
        self.set(
            "storage.cache_evictions",
            d(
                before.storage_cache_evictions,
                after.storage_cache_evictions,
            ),
        );
    }

    /// The two caches' counters of one operation unit (one cold execute
    /// or one whole session), from the engine's own registry.
    pub fn set_cache_counters(&mut self, snap: &MetricsSnapshot) {
        let hit = snap.counter("preprocess.cache.hit") as f64;
        let miss = snap.counter("preprocess.cache.miss") as f64;
        self.set("cache.hit", hit);
        self.set("cache.miss", miss);
        self.set("cache.hit_ratio", ratio(hit, hit + miss));
        self.set(
            "cache.bytes",
            snap.gauge("preprocess.cache.bytes").unwrap_or(0) as f64,
        );
        let served = snap.counter("core.minecache.hit") as f64;
        let missed = snap.counter("core.minecache.miss") as f64;
        self.set(
            "minecache.refine",
            snap.counter("core.minecache.refine") as f64,
        );
        self.set(
            "minecache.delta",
            snap.counter("core.minecache.delta") as f64,
        );
        self.set("minecache.miss", missed);
        self.set("minecache.served_ratio", ratio(served, served + missed));
        self.set(
            "minecache.bytes",
            snap.gauge("core.minecache.bytes").unwrap_or(0) as f64,
        );
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time one call in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, ms(start.elapsed()))
}

/// Time one statement; under tracing also record a span around it.
pub fn spanned<T>(rec: &mut Option<&mut Recorder>, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let open = rec.as_mut().map(|r| r.open(name));
    let (value, elapsed) = timed(f);
    if let (Some(r), Some(open)) = (rec.as_mut(), open) {
        r.close(open);
    }
    (value, elapsed)
}

fn proc_field(path: &str, key: &str) -> Option<u64> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where `/proc`
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Bytes this process has passed to `write`-family system calls so far
/// (`wchar` of `/proc/self/io`). Exact because the benchmark prints
/// nothing until it exits.
pub fn bytes_written() -> u64 {
    proc_field("/proc/self/io", "wchar:").unwrap_or(0)
}
