//! The benchmark's vocabulary: workload names and every metric it can
//! print, with unit, direction and regression bound. `/BENCHMARK.json`
//! repeats the names for the driver; a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before `--compare` calls it a regression. `None`: diagnostic
    /// only, never judged. `Some(0.0)`: an exact count.
    pub bound: Option<f64>,
}

const fn lower(name: &'static str, unit: &'static str, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

const fn higher(name: &'static str, unit: &'static str, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound,
    }
}

pub const WORKLOADS: [&str; 5] = [
    "basket_cold",
    "basket_rule_explosion",
    "retail_temporal",
    "refine_session",
    "durable_dml",
];

/// Printed by every workload with `--trace 0`; the driver gates these.
/// `op_ms` is the median wall-clock of the workload's one operation (see
/// the README's workload table for what that operation is).
pub const END_TO_END: [MetricDef; 3] = [
    lower("op_ms", "ms", Some(0.25)),
    lower("setup_s", "s", Some(0.25)),
    lower("peak_rss_mb", "MB", Some(0.10)),
];

/// Printed by every workload with `--trace 1` (0 where a layer is not
/// exercised). The first block holds what a user of one particular
/// workload waits for or pays; those are measured with tracing off and
/// carry bounds for `--compare`. Everything after is per-layer
/// diagnostics without a bound.
pub const PER_LAYER: &[MetricDef] = &[
    // -- user-visible, workload-specific (measured untraced) --
    lower("mine_cold_ms", "ms", Some(0.15)),
    lower("decoupled_ms", "ms", Some(0.15)),
    lower("coupling_ratio", "ratio", Some(0.15)),
    lower("session_ms", "ms", Some(0.15)),
    lower("refine_ms", "ms", Some(0.20)),
    lower("delta_remine_ms", "ms", Some(0.15)),
    lower("dml_stmt_ms", "ms", Some(0.25)),
    lower("sql_query_ms", "ms", Some(0.15)),
    higher("ingest_rows_per_s", "rows/s", Some(0.15)),
    lower("write_amp", "bytes/byte", Some(0.0)),
    lower("recovery_ms", "ms", Some(0.20)),
    // -- parser / translator --
    lower("parser.parse_us", "us", None),
    lower("translator.translate_us", "us", None),
    lower("translator.sql_steps", "count", None),
    // -- preprocess --
    lower("preprocess.ms", "ms", None),
    lower("preprocess.share", "fraction", None),
    lower("preprocess.rows_materialized", "count", None),
    higher("preprocess.fused_steps", "count", None),
    higher("preprocess.src_rows_per_s", "rows/s", None),
    lower("preprocess.step_ms.DDL", "ms", None),
    lower("preprocess.step_ms.Q1", "ms", None),
    lower("preprocess.step_ms.Q2", "ms", None),
    lower("preprocess.step_ms.Q3", "ms", None),
    lower("preprocess.step_ms.Q4b", "ms", None),
    lower("preprocess.step_ms.Q6", "ms", None),
    lower("preprocess.step_ms.Q7", "ms", None),
    lower("preprocess.step_ms.Q8", "ms", None),
    lower("preprocess.step_ms.Q9", "ms", None),
    lower("preprocess.step_ms.Q10", "ms", None),
    lower("preprocess.step_ms.Q11", "ms", None),
    // -- encoded / core operator / lattice --
    lower("encoded.read_ms", "ms", None),
    lower("encoded.tuples", "count", None),
    lower("core_op.mine_ms", "ms", None),
    lower("core_op.candidates_counted", "count", None),
    lower("core_op.gidset_intersects", "count", None),
    lower("core_op.itemsets_large", "count", None),
    lower("core_op.rules_emitted", "count", None),
    higher("core_op.useful_ratio", "fraction", None),
    lower("lattice.mine_ms", "ms", None),
    lower("lattice.candidates", "count", None),
    lower("lattice.sets", "count", None),
    // -- postprocess --
    lower("postprocess.store_ms", "ms", None),
    lower("postprocess.decode_ms", "ms", None),
    lower("postprocess.read_ms", "ms", None),
    lower("postprocess.rules", "count", None),
    lower("postprocess.us_per_rule", "us", None),
    // -- the two caches --
    higher("cache.hit", "count", None),
    lower("cache.miss", "count", None),
    higher("cache.hit_ratio", "fraction", None),
    lower("cache.warm_preprocess_ms", "ms", None),
    lower("cache.capture_ms", "ms", None),
    lower("cache.bytes", "bytes", None),
    higher("minecache.refine", "count", None),
    higher("minecache.delta", "count", None),
    lower("minecache.miss", "count", None),
    higher("minecache.served_ratio", "fraction", None),
    lower("minecache.capture_ms", "ms", None),
    lower("minecache.bytes", "bytes", None),
    // -- decoupled baseline --
    lower("decoupled.export_ms", "ms", None),
    lower("decoupled.mine_ms", "ms", None),
    lower("decoupled.import_ms", "ms", None),
    // -- relational engine --
    lower("sql.parse_us_per_stmt", "us", None),
    lower("sql.parse_us_per_kb", "us", None),
    lower("planner.plans", "count", None),
    lower("planner.reordered_joins", "count", None),
    lower("planner.pushed_filters", "count", None),
    lower("planner.est_rows_err", "count", None),
    lower("exec.rows_scanned", "count", None),
    lower("exec.rows_filtered", "count", None),
    lower("exec.rows_joined", "count", None),
    lower("exec.rows_examined_per_result", "ratio", None),
    lower("exec.query_ms.needle", "ms", None),
    lower("exec.query_ms.distinct", "ms", None),
    lower("exec.query_ms.groupby", "ms", None),
    lower("exec.query_ms.join", "ms", None),
    lower("exec.query_ms.orderby", "ms", None),
    lower("expr.programs_compiled", "count", None),
    lower("expr.fallback_ops", "count", None),
    higher("expr.vector_batches", "count", None),
    lower("expr.vector_fallback_batches", "count", None),
    lower("index.built", "count", None),
    higher("index.hits", "count", None),
    lower("index.invalidations", "count", None),
    lower("table.insert_us", "us", None),
    lower("table.update_ms", "ms", None),
    lower("table.delete_ms", "ms", None),
    // -- storage (identically zero on the four memory workloads) --
    lower("storage.bytes_written", "bytes", None),
    lower("storage.bytes_per_insert", "bytes", None),
    lower("storage.wal_appends", "count", None),
    lower("storage.wal_fsyncs", "count", None),
    lower("storage.fsyncs_per_stmt", "ratio", None),
    lower("storage.page_writes", "count", None),
    lower("storage.page_reads", "count", None),
    higher("storage.cache_hits", "count", None),
    lower("storage.cache_evictions", "count", None),
    lower("storage.checkpoint_ms", "ms", None),
    lower("storage.heap_bytes_per_user_byte", "bytes/byte", None),
    lower("storage.recovered_wal_bytes", "bytes", None),
    // -- datagen --
    lower("datagen.generate_ms", "ms", None),
    lower("datagen.load_ms", "ms", None),
    lower("datagen.rows", "count", None),
    // -- the benchmark itself --
    lower("host.ref_ms", "ms", None),
    higher("host.factor", "ratio", None),
    lower("trace.overhead_pct", "%", None),
    higher("trace.coverage_pct", "%", None),
    lower("mine_cold_ms.p_tail", "ms", None),
    lower("refine_ms.p_tail", "ms", None),
    lower("dml_stmt_ms.p_tail", "ms", None),
    lower("mine_cold_ms.min", "ms", None),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    /// The charset the driver accepts for workload and metric names.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The charset the driver accepts for units.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_driver_charset_and_are_unique() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS {
            assert!(valid_name(name), "workload {name}");
            assert!(seen.insert(name), "duplicate {name}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "metric {}", m.name);
            assert!(valid_unit(m.unit), "unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.bound.map_or(true, |b| (0.0..=0.25).contains(&b)));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(!valid_name("bad name") && !valid_name(".x") && !valid_name(""));
        assert!(!valid_unit("bytes per byte") && !valid_unit("×"));
    }

    /// `/BENCHMARK.json` is what the driver reads; it must list exactly
    /// this catalog.
    #[test]
    fn benchmark_json_lists_exactly_this_catalog() {
        let manifest = Json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = manifest.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            manifest
                .get(key)
                .unwrap()
                .items()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        for (key, defs) in [("end_to_end", &END_TO_END[..]), ("per_layer", PER_LAYER)] {
            let listed = manifest.get(key).unwrap().items();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").unwrap().as_str(), Some(def.name));
                assert_eq!(
                    entry.get("unit").unwrap().as_str(),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("better").unwrap().as_str(),
                    Some(match def.better {
                        Better::Lower => "lower",
                        Better::Higher => "higher",
                    }),
                    "{}",
                    def.name
                );
                if key == "end_to_end" {
                    assert_eq!(
                        entry.get("bound").unwrap().as_f64(),
                        def.bound,
                        "{}",
                        def.name
                    );
                } else {
                    assert!(entry.get("bound").is_none());
                }
            }
        }
        let paths = manifest.get("paths").unwrap().items();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("crates/bench/src/bin/benchmark"));
    }
}
