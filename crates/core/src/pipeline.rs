//! The end-to-end mining pipeline: the kernel of Figure 3a.
//!
//! [`MineRuleEngine::execute`] runs translator → preprocessor → core
//! operator → postprocessor against a [`relational::Database`], exactly
//! mirroring the process flow of the paper's architecture, and returns a
//! [`MiningOutcome`] with the decoded rules and a per-phase breakdown.
//!
//! Every run reports through the engine's [`Telemetry`] registry: phase
//! spans (`phase.*` histograms), translator directive counters,
//! preprocessor row counts per `Qi` step, core-operator work counters
//! and postprocessor row counts — see `docs/OBSERVABILITY.md` for the
//! full metric inventory. [`PhaseTimings`] is a per-run view derived
//! from the same spans, kept for its established accessors.

use std::sync::Arc;
use std::time::Duration;

use relational::expr::eval::QueryCtx;
use relational::{Database, ExecStats};

use crate::algo::EncodedRules;
use crate::artifacts::{ArtifactStore, ServeKind, StoreOutcome};
use crate::core_op::{run_core_on, CoreOptions, CoreOutput};
use crate::encoded::read_encoded;
use crate::error::Result;
use crate::parser::parse_mine_rule;
use crate::postprocess::{decode_rules, Decoded, DecodedRule};
use crate::preprocess::{preprocess_for_core, PreprocessReport, Preprocessed};
use crate::telemetry::{MetricsSnapshot, Telemetry};
use crate::translator::{translate_with_prefix, Translation};

/// Wall-clock breakdown of one mining run.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimings {
    pub translate: Duration,
    pub preprocess: Duration,
    pub core: Duration,
    pub postprocess: Duration,
}

impl PhaseTimings {
    /// Total time across phases.
    pub fn total(&self) -> Duration {
        self.translate + self.preprocess + self.core + self.postprocess
    }
}

/// Everything a mining run produces.
#[derive(Debug, Clone)]
pub struct MiningOutcome {
    /// Decoded rules, sorted by (body, head).
    pub rules: Vec<DecodedRule>,
    /// The translation that drove the run.
    pub translation: Translation,
    /// Preprocessing row counts and thresholds.
    pub preprocess_report: PreprocessReport,
    /// Whether the general core path ran.
    pub used_general: bool,
    /// Per-phase wall-clock times.
    pub timings: PhaseTimings,
}

/// The mining engine: core-operator options plus encoded-table naming.
#[derive(Debug, Clone)]
pub struct MineRuleEngine {
    /// Core-operator configuration (algorithm choice, forced general path).
    pub core: CoreOptions,
    /// Prefix for the encoded tables (lets several statements share one
    /// catalog, and enables preprocessing reuse).
    pub table_prefix: String,
    /// The metrics registry every run reports into. Enabled by default;
    /// clones of the engine share the same registry. Disabling it
    /// changes no mined output (enforced by `tests/telemetry.rs`).
    telemetry: Telemetry,
    /// The session artifact store: per statement fingerprint, the encoded
    /// tables (a rerun over an unmodified source skips preprocessing) and
    /// the frequent-itemset inventory (tightened thresholds and small
    /// source deltas skip the core operator). Enabled by default; clones
    /// of the engine share the same store. Disabling it changes no mined
    /// output (enforced by `tests/cache_agreement.rs`).
    artifacts: ArtifactStore,
}

impl Default for MineRuleEngine {
    fn default() -> Self {
        MineRuleEngine {
            core: CoreOptions::default(),
            table_prefix: String::new(),
            telemetry: Telemetry::new(),
            artifacts: ArtifactStore::new(true),
        }
    }
}

impl MineRuleEngine {
    /// An engine with default options.
    pub fn new() -> MineRuleEngine {
        MineRuleEngine::default()
    }

    /// Select the simple-class mining algorithm by pool name
    /// (`"apriori"`, `"count"`, `"dhp"`, `"partition"`, `"sampling"`).
    pub fn with_algorithm(mut self, name: &str) -> MineRuleEngine {
        self.core.algorithm = name.to_string();
        self
    }

    /// Use a table prefix for all encoded tables.
    pub fn with_prefix(mut self, prefix: &str) -> MineRuleEngine {
        self.table_prefix = prefix.to_string();
        self
    }

    /// Turn the session artifact store on (a fresh store) or off. With it
    /// on, a rerun of a statement over unmodified source tables skips
    /// `Q0`..`Q11`, and a simple-class rerun with tightened thresholds —
    /// or after a small INSERT/DELETE delta on the source table — skips
    /// the core operator; on/off mines bit-identical rules (enforced by
    /// `tests/cache_agreement.rs`).
    pub fn with_cache(mut self, enabled: bool) -> MineRuleEngine {
        self.set_cache_enabled(enabled);
        self
    }

    /// Turn the session artifact store on (a fresh store) or off.
    pub fn set_cache_enabled(&mut self, enabled: bool) {
        if enabled != self.artifacts.is_enabled() {
            self.artifacts = ArtifactStore::new(enabled);
        }
    }

    /// Whether runs currently consult the session artifact store.
    pub fn cache_enabled(&self) -> bool {
        self.artifacts.is_enabled()
    }

    /// Report runs into the given telemetry registry (replaces the
    /// engine's own). Useful to share one registry across engines.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> MineRuleEngine {
        self.telemetry = telemetry;
        self
    }

    /// Turn metric recording on (a fresh registry) or off.
    pub fn set_telemetry_enabled(&mut self, enabled: bool) {
        if enabled != self.telemetry.is_enabled() {
            self.telemetry = if enabled {
                Telemetry::new()
            } else {
                Telemetry::disabled()
            };
        }
    }

    /// Whether runs currently record metrics.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_enabled()
    }

    /// The engine's telemetry handle (cloning it shares the registry).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// A point-in-time copy of every metric recorded so far.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.telemetry.snapshot()
    }

    /// Clear all recorded metrics.
    pub fn reset_metrics(&self) {
        self.telemetry.reset();
    }

    /// Parse and execute a MINE RULE statement end to end.
    pub fn execute(&self, db: &mut Database, text: &str) -> Result<MiningOutcome> {
        self.telemetry.counter_inc("translator.statements");
        let sql_before = db.stats();
        let stmt = parse_mine_rule(text)?;

        let span = self.telemetry.span("phase.translate");
        let translation = translate_with_prefix(&stmt, db.catalog(), &self.table_prefix)?;
        let translate_time = span.stop();
        self.record_translation(&translation);

        let span = self.telemetry.span("phase.preprocess");
        let preprocessed = self.run_preprocess(db, &translation)?;
        let preprocess_time = span.stop();
        self.record_preprocess(&preprocessed.report);

        let span = self.telemetry.span("phase.core");
        let (rules, used_general) = self.run_core(db, &translation, &preprocessed)?;
        let core_time = span.stop();

        let span = self.telemetry.span("phase.postprocess");
        let rules_stored = rules.len() as u64;
        let Decoded {
            rules: decoded,
            fused_steps,
            sets_rendered,
        } = decode_rules(db, &translation, rules)?;
        self.telemetry
            .counter_add("postprocess.rules_stored", rules_stored);
        self.telemetry
            .counter_add("postprocess.rules_decoded", decoded.len() as u64);
        self.telemetry
            .counter_add("postprocess.sets_rendered", sets_rendered as u64);
        if fused_steps > 0 {
            self.telemetry
                .counter_add("postprocess.fused_steps", fused_steps as u64);
        }
        let postprocess_time = span.stop();
        self.record_relational(sql_before, db.stats());

        // The outcome does not hold on to the source digest: the store's
        // next delta replay then finds it unshared and works in place.
        let mut preprocess_report = preprocessed.report;
        preprocess_report.digest = None;
        Ok(MiningOutcome {
            rules: decoded,
            translation,
            preprocess_report,
            used_general,
            timings: PhaseTimings {
                translate: translate_time,
                preprocess: preprocess_time,
                core: core_time,
                postprocess: postprocess_time,
            },
        })
    }

    /// Run preprocessing through the artifact store: a restore reinstates
    /// the captured encoded tables and hands over the kept core input (no
    /// `Qi` step executes); a re-derivation builds the encoding from the
    /// kept source digest (a loosened support, or a replayed source delta)
    /// and is captured like a cold run; a miss runs the full program and
    /// captures the encoding for the next run. With the store disabled
    /// this is exactly [`preprocess_for_core`].
    fn run_preprocess(&self, db: &mut Database, translation: &Translation) -> Result<Preprocessed> {
        if !self.artifacts.is_enabled() {
            return preprocess_for_core(db, translation);
        }
        let run = match self
            .artifacts
            .restore_encoding(db, translation, &self.table_prefix)?
        {
            Some((restored, kind)) => {
                self.telemetry.counter_inc("preprocess.cache.hit");
                match kind {
                    ServeKind::Hit => return Ok(restored),
                    ServeKind::Refine => self.telemetry.counter_inc("preprocess.cache.refine"),
                    ServeKind::Delta => self.telemetry.counter_inc("preprocess.cache.delta"),
                }
                restored
            }
            None => {
                self.telemetry.counter_inc("preprocess.cache.miss");
                preprocess_for_core(db, translation)?
            }
        };
        let stored = self
            .artifacts
            .capture_encoding(db, translation, &self.table_prefix, &run);
        self.record_evictions(&stored);
        self.telemetry
            .gauge_set("preprocess.cache.bytes", stored.encoding_bytes as i64);
        Ok(run)
    }

    /// Count the evictions a capture caused. The metric names say which
    /// phase a warm run would have skipped: an evicted entry counts once
    /// for each half it held.
    fn record_evictions(&self, stored: &StoreOutcome) {
        if stored.evicted_encodings > 0 {
            self.telemetry
                .counter_add("preprocess.cache.evict", stored.evicted_encodings);
        }
        if stored.evicted_inventories > 0 {
            self.telemetry
                .counter_add("core.minecache.evict", stored.evicted_inventories);
        }
    }

    /// Count the translation's directive classification
    /// (`translator.*` metrics).
    fn record_translation(&self, translation: &Translation) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry
            .counter_inc(&format!("translator.class.{}", translation.class));
        let d = &translation.directives;
        for (flag, set) in [
            ("h", d.h),
            ("w", d.w),
            ("m", d.m),
            ("g", d.g),
            ("c", d.c),
            ("k", d.k),
            ("f", d.f),
            ("r", d.r),
        ] {
            if set {
                self.telemetry
                    .counter_inc(&format!("translator.directive.{flag}"));
            }
        }
    }

    /// Count rows materialised per `Qi` step (`preprocess.*` metrics).
    fn record_preprocess(&self, report: &PreprocessReport) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry
            .counter_add("preprocess.steps", report.executed.len() as u64);
        if report.fused_steps > 0 {
            self.telemetry
                .counter_add("preprocess.fused_steps", report.fused_steps as u64);
        }
        for (id, rows) in &report.executed {
            self.telemetry
                .counter_add(&format!("preprocess.rows.{id}"), *rows as u64);
        }
        for (name, pairs) in [
            ("cluster", report.cluster_pairs),
            ("mining", report.mining_pairs),
        ] {
            if pairs.evaluated > 0 {
                let counter = |what| format!("preprocess.pairs.{name}.{what}");
                self.telemetry
                    .counter_add(&counter("evaluated"), pairs.evaluated);
                self.telemetry.counter_add(&counter("kept"), pairs.kept);
            }
        }
        if report.cond_evaluated > 0 {
            self.telemetry
                .counter_add("preprocess.cond.evaluated", report.cond_evaluated);
        }
        self.telemetry
            .gauge_set("preprocess.total_groups", report.total_groups as i64);
        self.telemetry
            .gauge_set("preprocess.min_groups", report.min_groups as i64);
    }

    /// Publish the SQL server's execution-counter deltas for one run
    /// (`relational.*` metrics). Zero deltas are skipped so reference-path
    /// runs don't mint empty `relational.compile.*` counters and
    /// memory-backend runs don't mint `relational.storage.*` ones.
    fn record_relational(&self, before: ExecStats, after: ExecStats) {
        if !self.telemetry.is_enabled() {
            return;
        }
        for ((name, before), (_, after)) in before.named().into_iter().zip(after.named()) {
            let delta = after.saturating_sub(before);
            if delta > 0 {
                self.telemetry.counter_add(name, delta);
            }
        }
    }

    /// Run the core phase through the artifact store: the encoded rules
    /// and whether the general path produced them. A serve replaces the whole phase: no itemset
    /// mining, no `core.level.*` activity — the kept inventory filtered
    /// at the current thresholds yields rules bit-identical to a cold
    /// mine; a miss mines and captures the inventory for the next run.
    /// A miss mines the input preprocessing handed over (the fused pass
    /// or a restore); only after the stepwise program, and always on the
    /// reference paths, does it read the encoded tables back
    /// (`core.encoded.read_back`).
    fn run_core(
        &self,
        db: &mut Database,
        translation: &Translation,
        preprocessed: &Preprocessed,
    ) -> Result<(EncodedRules, bool)> {
        let preprocess_report = &preprocessed.report;
        let serve =
            self.artifacts
                .serve_rules(db, translation, &self.table_prefix, preprocess_report)?;
        Ok(match serve {
            Some(serve) => {
                self.telemetry.counter_inc("core.minecache.hit");
                match serve.kind {
                    ServeKind::Hit => {}
                    ServeKind::Refine => self.telemetry.counter_inc("core.minecache.refine"),
                    ServeKind::Delta => self.telemetry.counter_inc("core.minecache.delta"),
                }
                (serve.rules, false)
            }
            None => {
                if self.artifacts.is_enabled() {
                    self.telemetry.counter_inc("core.minecache.miss");
                }
                let span = self.telemetry.span("phase.core.handover");
                let handed_over = if db.reference_paths() {
                    None
                } else {
                    preprocessed.encoded_input(translation)?
                };
                let encoded = match handed_over {
                    Some(input) => input,
                    None => {
                        self.telemetry.counter_inc("core.encoded.read_back");
                        Arc::new(read_encoded(db, translation)?)
                    }
                };
                span.stop();
                let CoreOutput {
                    rules,
                    used_general,
                    large_itemsets,
                    ..
                } = run_core_on(&encoded, &self.core, &self.telemetry, db.reference_paths())?;
                if let (Some(large), true) = (&large_itemsets, self.artifacts.is_enabled()) {
                    let span = self.telemetry.span("phase.core.capture");
                    let stored = self.artifacts.capture_inventory(
                        db,
                        translation,
                        &self.table_prefix,
                        preprocess_report,
                        large,
                    );
                    span.stop();
                    self.record_evictions(&stored);
                    // Both halves: the encoding stops counting a digest the
                    // new inventory now holds.
                    self.telemetry
                        .gauge_set("preprocess.cache.bytes", stored.encoding_bytes as i64);
                    self.telemetry
                        .gauge_set("core.minecache.bytes", stored.inventory_bytes as i64);
                    self.telemetry
                        .counter_add("core.minecache.capture.source_rows", stored.source_rows);
                }
                (rules, used_general)
            }
        })
    }
}
