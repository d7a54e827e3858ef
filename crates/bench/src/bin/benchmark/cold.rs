//! The three cold-mining workloads: `basket_cold`,
//! `basket_rule_explosion` and `retail_temporal`. One operation is a
//! fresh database plus a fresh engine running one `execute`; only the
//! dataset and the statement differ, so the three share this module.
//!
//! The traced pass replays the same statement *stepwise from outside* —
//! the paper's four components called one by one, a span around each —
//! and must mine exactly the engine's rules.

use std::collections::BTreeMap;

use minerule::core_op::{run_core, CoreOptions};
use minerule::decoupled::{export_to_csv, import_rules, mine_flat_file, run_decoupled, FlatRule};
use minerule::encoded::{read_encoded, EncodedData};
use minerule::postprocess::{postprocess, read_rules, store_encoded_rules, DecodedRule};
use minerule::preprocess::{preprocess, run_steps, PreprocessReport};
use minerule::translator::Step;
use minerule::{parse_mine_rule, translate_with_prefix, MineRuleEngine};
use relational::sql::parser::parse_statement;
use relational::{Database, ExecStats};

use crate::catalog::PER_LAYER;
use crate::data::{self, Dataset, Fingerprint, Sizes};
use crate::host::{Probe, MEMORY_EXPONENT};
use crate::run::{ms, ratio, timed, Outcome, RunConfig};
use crate::stats;
use crate::trace::Recorder;

/// Values that must not drift at full scale, whatever the seed.
#[derive(Debug, Clone, Copy)]
pub struct Pinned {
    /// `(rows, FNV-1a)` of the dataset's base shape.
    pub dataset: Fingerprint,
    /// `(rules, FNV-1a)` of the mined rule shapes.
    pub rules: Fingerprint,
}

pub struct ColdSpec {
    pub base: fn(&Sizes) -> Dataset,
    pub statement: String,
    pub min_support: f64,
    pub min_confidence: f64,
    /// Interleave the decoupled baseline (`basket_cold` only).
    pub decoupled: bool,
    pub pinned: Pinned,
}

pub fn basket_cold() -> ColdSpec {
    ColdSpec {
        base: |s| data::sparse_quest(s.cold_baskets),
        statement: data::simple_statement(0.03, 0.4),
        min_support: 0.03,
        min_confidence: 0.4,
        decoupled: true,
        pinned: Pinned {
            dataset: (150_394, 0x32f2_daf7_07ff_c7a9),
            rules: (302, 0x98c2_3743_5a89_cdb1),
        },
    }
}

pub fn basket_rule_explosion(sizes: &Sizes) -> ColdSpec {
    ColdSpec {
        base: |s| data::dense_quest(s.explosion_baskets),
        statement: data::simple_statement(sizes.explosion_support, 0.4),
        min_support: sizes.explosion_support,
        min_confidence: 0.4,
        decoupled: false,
        pinned: Pinned {
            dataset: (23_849, 0x2c3c_022b_a62a_543f),
            rules: (18_277, 0xac12_6ca9_660c_ab25),
        },
    }
}

pub fn retail_temporal() -> ColdSpec {
    ColdSpec {
        base: |s| data::retail(s.retail_customers),
        statement: data::temporal_statement(0.01, 0.2),
        min_support: 0.01,
        min_confidence: 0.2,
        decoupled: false,
        pinned: Pinned {
            dataset: (20_049, 0x933d_9dd0_814b_6788),
            rules: (13, 0x2605_99af_5b9c_ad81),
        },
    }
}

/// What one stepwise pass over the four components produced.
pub struct Stepwise {
    pub rules: Vec<DecodedRule>,
    pub report: PreprocessReport,
    /// SQL statements in the translated preprocessing program.
    pub sql_steps: usize,
    /// Every SQL text the translation carries (for the parser timing).
    pub sql_texts: Vec<String>,
    pub encoded_tuples: usize,
}

fn sql_counts(before: ExecStats, after: ExecStats) -> Vec<(&'static str, u64)> {
    vec![
        ("statements", after.statements - before.statements),
        ("rows_scanned", after.rows_scanned - before.rows_scanned),
        ("rows_filtered", after.rows_filtered - before.rows_filtered),
        ("rows_joined", after.rows_joined - before.rows_joined),
    ]
}

/// Run one MINE RULE statement component by component — parser,
/// translator, preprocessor, encoded read, core operator, postprocessor —
/// with a span around each call. With `per_step` the preprocessing
/// program runs one `run_steps` call per `Qi` (what the engine does for a
/// statement it cannot fuse); without, through `preprocess` as a whole.
pub fn stepwise(
    db: &mut Database,
    text: &str,
    core: &CoreOptions,
    per_step: bool,
    rec: &mut Recorder,
) -> minerule::Result<Stepwise> {
    rec.next_op();
    let root = rec.open("stepwise");

    let span = rec.open("parser");
    let stmt = parse_mine_rule(text)?;
    rec.close(span);

    let span = rec.open("translator");
    let translation = translate_with_prefix(&stmt, db.catalog(), "")?;
    rec.close(span);

    let min_support = translation.stmt.min_support;
    let span = rec.open("preprocess");
    let before = db.stats();
    let report = if per_step {
        run_steps(db, &translation.cleanup, min_support)?;
        let mut merged = PreprocessReport::default();
        for step in &translation.preprocess {
            let id = match step {
                Step::Sql { id, .. } => id.as_str(),
                Step::ComputeMinGroups => "mingroups",
            };
            let step_span = rec.open(&format!("preprocess.{id}"));
            let step_before = db.stats();
            let part = run_steps(db, std::slice::from_ref(step), min_support)?;
            rec.close_with(step_span, sql_counts(step_before, db.stats()));
            merged.executed.extend(part.executed);
            if matches!(step, Step::ComputeMinGroups) {
                merged.total_groups = part.total_groups;
                merged.min_groups = part.min_groups;
            }
        }
        merged
    } else {
        preprocess(db, &translation)?
    };
    rec.close_with(span, sql_counts(before, db.stats()));

    let span = rec.open("encoded");
    let before = db.stats();
    let encoded = read_encoded(db, &translation)?;
    let encoded_tuples = match &encoded.data {
        EncodedData::Simple { groups } => groups.iter().map(|(_, items)| items.len()).sum(),
        EncodedData::General { tuples, .. } => tuples.len(),
    };
    let mut counts = sql_counts(before, db.stats());
    counts.push(("tuples", encoded_tuples as u64));
    rec.close_with(span, counts);

    let general = matches!(encoded.data, EncodedData::General { .. });
    let span = rec.open(if general { "lattice" } else { "core_op" });
    let mined = run_core(&encoded, core)?;
    rec.close_with(span, vec![("rules", mined.rules.len() as u64)]);

    let span = rec.open("postprocess.store");
    store_encoded_rules(db, &translation, &mined.rules)?;
    rec.close(span);

    let span = rec.open("postprocess.decode");
    let before = db.stats();
    postprocess(db, &translation)?;
    rec.close_with(span, sql_counts(before, db.stats()));

    let span = rec.open("postprocess.read");
    let rules = read_rules(db, &translation)?;
    rec.close_with(span, vec![("rules", rules.len() as u64)]);

    rec.close(root);

    let sql_of = |steps: &[Step]| -> Vec<String> {
        steps
            .iter()
            .filter_map(|s| match s {
                Step::Sql { sql, .. } => Some(sql.clone()),
                Step::ComputeMinGroups => None,
            })
            .collect()
    };
    let sql_steps = sql_of(&translation.preprocess).len();
    let mut sql_texts = sql_of(&translation.cleanup);
    sql_texts.extend(sql_of(&translation.preprocess));
    sql_texts.extend(sql_of(&translation.postprocess));
    Ok(Stepwise {
        rules,
        report,
        sql_steps,
        sql_texts,
        encoded_tuples,
    })
}

/// Time the SQL parser over `texts` — the median of three passes — and
/// record it per statement and per KiB. Every text must parse.
pub fn record_parse_cost(texts: &[String], out: &mut Outcome) {
    if texts.is_empty() {
        return;
    }
    let kib = texts.iter().map(String::len).sum::<usize>() as f64 / 1024.0;
    let mut rejected = 0;
    let passes: Vec<f64> = (0..3)
        .map(|_| {
            rejected = 0;
            let ((), elapsed) = timed(|| {
                for text in texts {
                    if std::hint::black_box(parse_statement(std::hint::black_box(text))).is_err() {
                        rejected += 1;
                    }
                }
            });
            elapsed * 1e3
        })
        .collect();
    out.check(rejected == 0, || {
        format!(
            "the SQL parser rejected {rejected} of {} statements",
            texts.len()
        )
    });
    let us = stats::median(&passes);
    out.set("sql.parse_us_per_stmt", us / texts.len() as f64);
    out.set("sql.parse_us_per_kb", ratio(us, kib));
}

/// Whether the decoupled tool found the engine's rules: the same
/// (body, head) pairs, support and confidence within 1e-9.
fn same_inventory(engine: &[DecodedRule], flat: &[FlatRule]) -> bool {
    let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
    let by_key: BTreeMap<(&[String], &[String]), &FlatRule> = flat
        .iter()
        .map(|r| ((r.body.as_slice(), r.head.as_slice()), r))
        .collect();
    engine.len() == flat.len()
        && by_key.len() == flat.len()
        && engine.iter().all(|r| {
            by_key
                .get(&(r.body.as_slice(), r.head.as_slice()))
                .is_some_and(|f| close(f.support, r.support) && close(f.confidence, r.confidence))
        })
}

/// Timing samples of the untraced loop.
#[derive(Default)]
struct Samples {
    cold: Vec<f64>,
    /// `cold` at quiet-host speed: what `op_ms` is the median of.
    op: Vec<f64>,
    decoupled: Vec<f64>,
    engine_preprocess: Vec<f64>,
    engine_core: Vec<f64>,
}

pub fn run(spec: &ColdSpec, cfg: &RunConfig, out: &mut Outcome) {
    // The stepwise passes mine with the engine's own default options.
    let core = MineRuleEngine::new().core;
    // ---- set-up: generate, load, reference answer -------------------
    let (dataset, fingerprint, reference) = cfg.set_up(out, |times| {
        let (dataset, fingerprint) = times.generate(|| (spec.base)(&cfg.sizes), cfg.seed);
        let mut db = times.load(&dataset);
        let reference = stepwise(
            &mut db,
            &spec.statement,
            &core,
            false,
            &mut Recorder::default(),
        );
        (dataset, fingerprint, reference)
    });
    out.set("datagen.rows", dataset.rows() as f64);
    let Some(reference) = out.attempt("stepwise reference", reference) else {
        return;
    };
    if !cfg.sizes.quick {
        out.check_pin("dataset", spec.pinned.dataset, fingerprint);
        out.check_pin(
            "mined rule set",
            spec.pinned.rules,
            data::rule_shape_fingerprint(&reference.rules),
        );
    }

    // ---- measure: fresh database + fresh engine -> one execute -------
    // A traced run follows every untraced execute with one stepwise
    // replay, so the two see the same minutes of the host and their
    // difference (capture, overhead) is not an artefact of drift.
    let per_step = reference.report.fused_steps == 0;
    let mut samples = Samples::default();
    let mut rec = Recorder::default();
    // The last repetition's engine and database, kept for the counters.
    let mut kept: Option<(MineRuleEngine, Database, ExecStats)> = None;
    // The decoupled arm only reads the source table, so one equal
    // database serves all its repetitions.
    let mut flat_db = spec.decoupled.then(|| dataset.fresh_db());
    let flat_query = format!("SELECT tr, item FROM {}", dataset.table());
    let mut rep = |out: &mut Outcome, samples: Option<&mut Samples>| {
        kept = None; // drop the previous database before loading the next
        let mut db = dataset.fresh_db();
        let engine = MineRuleEngine::new();
        let before = db.stats();
        let (result, cold_ms) = timed(|| engine.execute(&mut db, &spec.statement));
        let Some(mined) = out.attempt("execute", result) else {
            return;
        };
        out.check(
            data::rules_identical(&mined.rules, &reference.rules),
            || {
                format!(
                    "engine mined {} rules, stepwise reference {}: not bit-identical",
                    mined.rules.len(),
                    reference.rules.len()
                )
            },
        );
        let timings = mined.timings;
        kept = Some((engine, db, before));
        let mut decoupled_ms = None;
        if let Some(flat_db) = flat_db.as_mut() {
            let (result, flat_ms) = timed(|| {
                run_decoupled(
                    flat_db,
                    &flat_query,
                    spec.min_support,
                    spec.min_confidence,
                    "FlatRules",
                )
            });
            if let Some(flat) = out.attempt("run_decoupled", result) {
                out.check(same_inventory(&mined.rules, &flat), || {
                    format!(
                        "decoupled inventory ({} rules) differs from the engine's ({})",
                        flat.len(),
                        mined.rules.len()
                    )
                });
                decoupled_ms = Some(flat_ms);
            }
        }
        if let Some(samples) = samples {
            samples.cold.push(cold_ms);
            samples.engine_preprocess.push(ms(timings.preprocess));
            samples.engine_core.push(ms(timings.core));
            samples.decoupled.extend(decoupled_ms);
        }
    };
    rep(out, None); // warm-up, discarded
    let mut probe = Probe::start(MEMORY_EXPONENT);
    let mut budget = cfg.budget(1.0);
    while budget.more() {
        rep(out, Some(&mut samples));
        // One reading per repetition: the host's speed moves over
        // seconds, not within the one a repetition takes.
        let factor = probe.factor();
        if let Some(cold_ms) = samples.cold.get(samples.op.len()) {
            samples.op.push(cold_ms * factor);
        }
        if cfg.trace {
            replay(spec, &dataset, &reference, &core, per_step, &mut rec, out);
        }
    }

    out.set_op_ms(&samples.op, &probe);
    out.set_median("mine_cold_ms", &samples.cold);
    out.set("mine_cold_ms.min", stats::min(&samples.cold));
    out.set("mine_cold_ms.p_tail", stats::tail(&samples.cold).1);
    if spec.decoupled {
        out.set_median("decoupled_ms", &samples.decoupled);
        out.set(
            "coupling_ratio",
            ratio(out.get("mine_cold_ms"), out.get("decoupled_ms")),
        );
    }
    if cfg.trace {
        if let Some((engine, db, before)) = kept {
            record_counters(&engine, db, before, spec, &reference, out);
        }
        record_layers(&rec, &samples, &dataset, &reference, out);
        out.trace = Some(rec);
    }
}

/// One traced replay: the statement stepwise over a fresh database and,
/// on `basket_cold`, the decoupled flow step by step over another.
fn replay(
    spec: &ColdSpec,
    dataset: &Dataset,
    reference: &Stepwise,
    core: &CoreOptions,
    per_step: bool,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let mut db = dataset.fresh_db();
    let result = stepwise(&mut db, &spec.statement, core, per_step, rec);
    if let Some(step) = out.attempt("stepwise replay", result) {
        out.check(data::rules_identical(&step.rules, &reference.rules), || {
            "stepwise replay mined different rules than the reference".to_string()
        });
    }
    if !spec.decoupled {
        return;
    }
    drop(db);
    let mut db = dataset.fresh_db();
    let query = format!("SELECT tr, item FROM {}", dataset.table());
    rec.next_op();
    let root = rec.open("decoupled");
    let span = rec.open("decoupled.export");
    let csv = export_to_csv(&mut db, &query);
    rec.close(span);
    let span = rec.open("decoupled.mine");
    let flat = csv.and_then(|csv| mine_flat_file(&csv, spec.min_support, spec.min_confidence));
    rec.close(span);
    let span = rec.open("decoupled.import");
    let imported = flat.and_then(|flat| import_rules(&mut db, "FlatRules", &flat));
    rec.close(span);
    rec.close(root);
    out.attempt("decoupled replay", imported);
}

/// The deterministic counters of exactly one cold execute, from the
/// engine and database the last repetition left behind.
fn record_counters(
    engine: &MineRuleEngine,
    mut db: Database,
    before: ExecStats,
    spec: &ColdSpec,
    reference: &Stepwise,
    out: &mut Outcome,
) {
    let snap = engine.metrics_snapshot();
    out.set_relational(before, db.stats());
    out.set_cache_counters(&snap);
    // Attempts of the core operator: a candidate is evaluated either by
    // counting it against the groups or by intersecting gid-sets.
    let counted = snap.counter("core.candidates.counted") as f64;
    let intersects = snap.counter("core.gidset.intersects") as f64;
    let large = snap.counter("core.itemsets.large") as f64;
    out.set("core_op.candidates_counted", counted);
    out.set("core_op.gidset_intersects", intersects);
    out.set("core_op.itemsets_large", large);
    out.set(
        "core_op.rules_emitted",
        snap.counter("core.rules.emitted") as f64,
    );
    out.set("core_op.useful_ratio", ratio(large, counted + intersects));
    out.set(
        "lattice.candidates",
        snap.counter("core.lattice.candidates") as f64,
    );
    out.set("lattice.sets", snap.counter("core.lattice.sets") as f64);
    out.set(
        "exec.rows_examined_per_result",
        ratio(out.get("exec.rows_scanned"), reference.rules.len() as f64),
    );
    // The same statement again on the now-warm engine: the preprocess
    // phase is a cache restore.
    let rerun = engine.execute(&mut db, &spec.statement);
    if let Some(warm) = out.attempt("warm rerun", rerun) {
        out.set("cache.warm_preprocess_ms", ms(warm.timings.preprocess));
        out.check(data::rules_identical(&warm.rules, &reference.rules), || {
            "warm rerun mined different rules".to_string()
        });
    }
}

/// Per-layer times from the replays' spans, and what only a subtraction
/// can show: capture, coverage, overhead.
fn record_layers(
    rec: &Recorder,
    samples: &Samples,
    dataset: &Dataset,
    reference: &Stepwise,
    out: &mut Outcome,
) {
    let spans = rec.durations_per_op();
    let span_ms = |name: &str| spans.get(name).map_or(0.0, |v| stats::median(v) / 1e3);
    let total_ms = span_ms("stepwise");
    out.set("parser.parse_us", span_ms("parser") * 1e3);
    out.set("translator.translate_us", span_ms("translator") * 1e3);
    out.set("translator.sql_steps", reference.sql_steps as f64);
    let preprocess_ms = span_ms("preprocess");
    out.set("preprocess.ms", preprocess_ms);
    out.samples
        .insert("preprocess.ms", spans.get("preprocess").map_or(0, Vec::len));
    out.set("preprocess.share", ratio(preprocess_ms, total_ms));
    out.set(
        "preprocess.rows_materialized",
        reference
            .report
            .executed
            .iter()
            .map(|(_, rows)| *rows as f64)
            .sum(),
    );
    out.set(
        "preprocess.fused_steps",
        reference.report.fused_steps as f64,
    );
    out.set(
        "preprocess.src_rows_per_s",
        ratio(dataset.rows() as f64, preprocess_ms / 1e3),
    );
    // `preprocess.step_ms.<Qi>` is the replay's `preprocess.<Qi>` span.
    for def in PER_LAYER {
        if let Some(step) = def.name.strip_prefix("preprocess.step_ms.") {
            out.set(def.name, span_ms(&format!("preprocess.{step}")));
        }
    }
    let read_ms = span_ms("encoded");
    out.set("encoded.read_ms", read_ms);
    out.set("encoded.tuples", reference.encoded_tuples as f64);
    let mine_ms = span_ms("core_op") + span_ms("lattice");
    out.set("core_op.mine_ms", span_ms("core_op"));
    out.set("lattice.mine_ms", span_ms("lattice"));
    let (store, decode, read) = (
        span_ms("postprocess.store"),
        span_ms("postprocess.decode"),
        span_ms("postprocess.read"),
    );
    out.set("postprocess.store_ms", store);
    out.set("postprocess.decode_ms", decode);
    out.set("postprocess.read_ms", read);
    out.set("postprocess.rules", reference.rules.len() as f64);
    out.set(
        "postprocess.us_per_rule",
        ratio((store + decode + read) * 1e3, reference.rules.len() as f64),
    );
    out.set("decoupled.export_ms", span_ms("decoupled.export"));
    out.set("decoupled.mine_ms", span_ms("decoupled.mine"));
    out.set("decoupled.import_ms", span_ms("decoupled.import"));
    record_parse_cost(&reference.sql_texts, out);

    // What the engine does beyond the four components is cache capture;
    // from outside it is visible only as the difference between the
    // engine's own phase time and the same phase run stepwise.
    let cache_capture = (stats::median(&samples.engine_preprocess) - preprocess_ms).max(0.0);
    let minecache_capture = (stats::median(&samples.engine_core) - read_ms - mine_ms).max(0.0);
    out.set("cache.capture_ms", cache_capture);
    out.set("minecache.capture_ms", minecache_capture);
    let cold_ms = out.get("mine_cold_ms");
    out.set(
        "trace.coverage_pct",
        100.0 * ratio(total_ms + cache_capture + minecache_capture, cold_ms),
    );
    let untraced_ms = cold_ms - cache_capture - minecache_capture;
    out.set(
        "trace.overhead_pct",
        100.0 * ratio(total_ms - untraced_ms, untraced_ms),
    );
}
