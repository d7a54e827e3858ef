//! The kernel benchmark: five workloads over the public surface of the
//! mining kernel and its SQL server, end-to-end metrics with bounds, and
//! a per-layer trace recorded from outside. See `README.md` beside this
//! file for why each workload and metric exists and how to read them.
//!
//! Three ways to run it:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` — one
//!   workload in this process; the last line of standard output is one
//!   JSON object (`correct`, `attempted`, `failed`, `metrics`). This is
//!   what `/BENCHMARK.json` tells the driver to call.
//! * no `--workload` — every workload, each in a process of its own
//!   (peak memory and allocator state do not leak between workloads),
//!   untraced then traced; prints every metric by name with unit and
//!   sample count, writes `result.json` and `trace.json`.
//! * `--compare <a.json> <b.json>` — judge two such result files.

mod catalog;
mod cold;
mod compare;
mod data;
mod durable;
mod host;
mod json;
mod run;
mod session;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use catalog::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use data::Sizes;
use json::Json;
use run::{Outcome, RunConfig};

const USAGE: &str = "usage: benchmark [--workload <name>] [--seed <u64>] [--seconds <n>] \
[--trace <0|1>] [--quick] [--runs <n>] [--out <file>]\n       benchmark --compare <a.json> <b.json>\n\
workloads: basket_cold basket_rule_explosion retail_temporal refine_session durable_dml";

/// Everything the benchmark writes lands here, inside the directory it
/// is started from.
const OUT_DIR: &str = ".bench_out";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    runs: usize,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: data::BASE_SEED,
        seconds: 15.0,
        trace: false,
        quick: false,
        runs: 1,
        out: None,
        compare: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload '{name}'"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&args.seconds) {
                    return Err("--seconds must be between 0 and 600".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--runs" => {
                args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if !(1..=100).contains(&args.runs) {
                    return Err("--runs must be between 1 and 100".to_string());
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--compare" => args.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// Run one workload in this process.
fn run_workload(name: &str, cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    match name {
        "basket_cold" => cold::run(&cold::basket_cold(), cfg, &mut out),
        "basket_rule_explosion" => {
            cold::run(&cold::basket_rule_explosion(&cfg.sizes), cfg, &mut out)
        }
        "retail_temporal" => cold::run(&cold::retail_temporal(), cfg, &mut out),
        "refine_session" => session::run(cfg, &mut out),
        "durable_dml" => durable::run(cfg, &mut out),
        other => unreachable!("workload '{other}' passed argument validation"),
    }
    out.set("peak_rss_mb", run::peak_rss_mb());
    out
}

fn metric_json(def: &MetricDef, out: &Outcome) -> Json {
    let mut m = Json::obj();
    m.push("value", Json::Num(out.get(def.name)))
        .push("unit", Json::Str(def.unit.to_string()));
    m
}

/// The one-line result the driver reads: with tracing off every
/// end-to-end metric, with tracing on every per-layer metric.
fn contract_line(out: &Outcome, trace: bool) -> String {
    let defs: &[MetricDef] = if trace { PER_LAYER } else { &END_TO_END };
    let mut metrics = Json::obj();
    for def in defs {
        metrics.push(def.name, metric_json(def, out));
    }
    let mut line = Json::obj();
    line.push("correct", Json::Bool(out.failed == 0))
        .push("attempted", Json::Num(out.attempted.max(1) as f64))
        .push("failed", Json::Num(out.failed as f64))
        .push("metrics", metrics);
    line.render()
}

/// Everything one run measured, for the all-workloads mode to collect.
fn full_json(out: &Outcome) -> Json {
    let mut metrics = Json::obj();
    let mut samples = Json::obj();
    for def in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(v) = out.metrics.get(def.name) {
            metrics.push(def.name, Json::Num(*v));
        }
        if let Some(n) = out.samples.get(def.name) {
            samples.push(def.name, Json::Num(*n as f64));
        }
    }
    let mut doc = Json::obj();
    doc.push("attempted", Json::Num(out.attempted as f64))
        .push("failed", Json::Num(out.failed as f64))
        .push(
            "failures",
            Json::Arr(out.failures.iter().cloned().map(Json::Str).collect()),
        )
        .push("metrics", metrics)
        .push("samples", samples);
    doc
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn single(name: &str, args: &Args) -> Result<bool, String> {
    // `run_decoupled` and the paged passes create their files under
    // `std::env::temp_dir()`; point that inside the start directory.
    let tmp_dir = Path::new(OUT_DIR).join(format!("tmp.{}", std::process::id()));
    std::fs::create_dir_all(&tmp_dir).map_err(|e| format!("{}: {e}", tmp_dir.display()))?;
    let tmp_dir = tmp_dir
        .canonicalize()
        .map_err(|e| format!("{}: {e}", tmp_dir.display()))?;
    std::env::set_var("TMPDIR", &tmp_dir);

    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        sizes: if args.quick {
            Sizes::QUICK
        } else {
            Sizes::FULL
        },
    };
    let out = run_workload(name, &cfg);
    let _ = std::fs::remove_dir_all(&tmp_dir);

    if let Some(rec) = &out.trace {
        let path = Path::new(OUT_DIR).join(format!("trace.{name}.json"));
        write_file(&path, &rec.to_json().render())?;
    }
    if let Some(path) = &args.out {
        write_file(path, &full_json(&out).render())?;
    }
    // Nothing is printed before this point: `write_amp` counts every
    // byte the process writes.
    for failure in &out.failures {
        eprintln!("FAILED [{name}] {failure}");
    }
    println!("{}", contract_line(&out, args.trace));
    Ok(out.failed == 0)
}

/// Run one workload in a child process and read back its full result.
fn child(name: &str, args: &Args, trace: bool) -> Result<Json, String> {
    let part = Path::new(OUT_DIR).join(format!("part.{}.json", std::process::id()));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&part)
        .stdout(Stdio::null());
    if args.quick {
        cmd.arg("--quick");
    }
    // `status` waits for the child; failures print on the shared stderr.
    let status = cmd.status().map_err(|e| format!("spawning {name}: {e}"))?;
    let text = std::fs::read_to_string(&part)
        .map_err(|e| format!("{name} left no result ({status}): {e}"))?;
    let _ = std::fs::remove_file(&part);
    Json::parse(&text).map_err(|e| format!("{name} result: {e}"))
}

fn all(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let mut workloads = Json::obj();
    let mut traces = Vec::new();
    let mut ok = true;
    println!(
        "# kernel benchmark — seed {}, {} s per run, {} run(s), {} scale, {} hardware threads\n",
        args.seed,
        args.seconds,
        args.runs,
        if args.quick { "quick" } else { "full" },
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    for name in WORKLOADS {
        // Untraced runs: end-to-end metrics, one value per run.
        let runs: Vec<Json> = (0..args.runs)
            .map(|_| child(name, args, false))
            .collect::<Result<_, _>>()?;
        let traced = child(name, args, true)?;
        let number = |doc: &Json, section: &str, key: &str| {
            doc.get(section)
                .and_then(|s| s.get(key))
                .and_then(Json::as_f64)
        };
        let total = |key: &str| -> f64 {
            runs.iter()
                .chain([&traced])
                .filter_map(|r| r.get(key).and_then(Json::as_f64))
                .sum()
        };
        let (ops_total, ops_failed) = (total("attempted"), total("failed"));
        ok &= ops_failed == 0.0;

        println!("## {name}\n");
        println!("| end-to-end metric | unit | median of runs | samples in a run | bound |");
        println!("|---|---|---|---|---|");
        let mut end_to_end = Json::obj();
        for def in END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter(|d| d.bound.is_some())
        {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| number(r, "metrics", def.name))
                .collect();
            if values.is_empty() {
                continue;
            }
            let samples =
                number(&runs[0], "samples", def.name).map_or("-".to_string(), |n| n.to_string());
            println!(
                "| {} | {} | {} | {samples} | {} |",
                def.name,
                def.unit,
                stats::median(&values),
                def.bound.unwrap_or(0.0),
            );
            end_to_end.push(
                def.name,
                Json::Arr(values.into_iter().map(Json::Num).collect()),
            );
        }
        println!(
            "| failed_share | fraction | {} | ops_total={ops_total} ops_failed={ops_failed} | 0 |\n",
            run::ratio(ops_failed, ops_total)
        );

        println!("| per-layer metric | unit | traced run | samples |");
        println!("|---|---|---|---|");
        let mut per_layer = Json::obj();
        for def in PER_LAYER.iter().filter(|d| d.bound.is_none()) {
            let Some(value) = number(&traced, "metrics", def.name) else {
                continue;
            };
            per_layer.push(def.name, Json::Num(value));
            // A layer the workload does not exercise reads 0; the table
            // lists what moved, the result file everything.
            if value != 0.0 {
                let samples =
                    number(&traced, "samples", def.name).map_or("-".to_string(), |n| n.to_string());
                println!("| {} | {} | {value} | {samples} |", def.name, def.unit);
            }
        }
        println!();

        let mut entry = Json::obj();
        entry
            .push("end_to_end", end_to_end)
            .push("per_layer", per_layer)
            .push("ops_total", Json::Num(ops_total))
            .push("ops_failed", Json::Num(ops_failed));
        workloads.push(name, entry);

        let path = Path::new(OUT_DIR).join(format!("trace.{name}.json"));
        if let Ok(spans) = std::fs::read_to_string(&path) {
            traces.push(format!("{}:{spans}", Json::Str(name.to_string()).render()));
            let _ = std::fs::remove_file(&path);
        }
    }

    let result = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join("result.json"));
    // A result file named with `--out` collects runs across invocations,
    // so two sets can be measured alternately instead of one after the
    // other — on a host whose speed drifts, only that compares like with
    // like.
    if let (Some(_), Ok(earlier)) = (&args.out, std::fs::read_to_string(&result)) {
        let earlier = Json::parse(&earlier).map_err(|e| format!("{}: {e}", result.display()))?;
        workloads = merge_runs(earlier.get("workloads"), workloads);
    }
    let mut doc = Json::obj();
    doc.push("seconds", Json::Num(args.seconds))
        .push("quick", Json::Bool(args.quick))
        .push("workloads", workloads);
    write_file(&result, &doc.render())?;
    let trace = Path::new(OUT_DIR).join("trace.json");
    write_file(&trace, &format!("{{{}}}", traces.join(",")))?;
    println!("result: {}\ntrace:  {}", result.display(), trace.display());
    println!(
        "{}",
        if ok {
            "all verifications passed"
        } else {
            "VERIFICATION FAILED"
        }
    );
    Ok(ok)
}

/// Put the end-to-end values of `earlier` runs in front of the `new`
/// ones, workload by workload and metric by metric; everything else
/// (per-layer values, operation counts) is the newest run's.
fn merge_runs(earlier: Option<&Json>, new: Json) -> Json {
    let mut merged = Json::obj();
    for (workload, entry) in new.members() {
        let old_values = |metric: &str| -> Vec<Json> {
            earlier
                .and_then(|e| e.get(workload))
                .and_then(|w| w.get("end_to_end"))
                .and_then(|e| e.get(metric))
                .map_or(Vec::new(), |v| match v {
                    Json::Arr(items) => items.clone(),
                    _ => Vec::new(),
                })
        };
        let mut out = Json::obj();
        for (key, value) in entry.members() {
            if key != "end_to_end" {
                out.push(key, value.clone());
                continue;
            }
            let mut end_to_end = Json::obj();
            for (metric, values) in value.members() {
                let mut all = old_values(metric);
                if let Json::Arr(items) = values {
                    all.extend(items.iter().cloned());
                }
                end_to_end.push(metric, Json::Arr(all));
            }
            out.push(key, end_to_end);
        }
        merged.push(workload, out);
    }
    merged
}

fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |path: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (report, worse) = compare::compare(&load(a)?, &load(b)?);
    println!("# a = {}, b = {}{report}", a.display(), b.display());
    println!("\n{worse} end-to-end metric(s) worse than their bound allows");
    Ok(worse == 0)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.compare, &args.workload) {
        (Some((a, b)), _) => compare_files(a, b),
        (None, Some(name)) => single(name, &args),
        (None, None) => all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(trace: bool) -> RunConfig {
        RunConfig {
            seed: 11,
            seconds: 0.0,
            trace,
            sizes: Sizes::QUICK,
        }
    }

    /// Every workload at quick scale, traced (which runs the untraced
    /// loop too): every built-in verification passes and every metric the
    /// driver will ask for is a finite number.
    #[test]
    fn every_workload_verifies_at_quick_scale() {
        for name in WORKLOADS {
            let out = run_workload(name, &quick(true));
            assert_eq!(out.failed, 0, "{name}: {:?}", out.failures);
            assert!(out.attempted > 0, "{name}");
            assert!(
                out.trace.as_ref().is_some_and(|t| !t.spans().is_empty()),
                "{name}"
            );
            for def in &END_TO_END {
                assert!(
                    out.get(def.name) > 0.0,
                    "{name}: {} must never be 0",
                    def.name
                );
            }
            for line in [contract_line(&out, false), contract_line(&out, true)] {
                let parsed = Json::parse(&line).unwrap();
                let keys: Vec<&str> = parsed.members().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
                for (metric, entry) in parsed.get("metrics").unwrap().members() {
                    let value = entry.get("value").and_then(Json::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{name}: {metric} = {value:?}"
                    );
                }
            }
            let storage_untouched = PER_LAYER
                .iter()
                .filter(|d| d.name.starts_with("storage."))
                .all(|d| out.get(d.name) == 0.0);
            assert_eq!(storage_untouched, name != "durable_dml", "{name}");
        }
    }

    #[test]
    fn contract_lines_list_exactly_the_catalog() {
        let out = run_workload("basket_rule_explosion", &quick(false));
        assert!(out.trace.is_none());
        let names = |trace: bool| -> Vec<String> {
            Json::parse(&contract_line(&out, trace))
                .unwrap()
                .get("metrics")
                .unwrap()
                .members()
                .iter()
                .map(|(k, _)| k.clone())
                .collect()
        };
        assert_eq!(names(false), END_TO_END.map(|d| d.name));
        assert_eq!(
            names(true),
            PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn result_files_collect_runs_across_invocations() {
        let doc = |values: &str| {
            Json::parse(&format!(
                "{{\"basket_cold\":{{\"end_to_end\":{{\"op_ms\":{values}}},\"ops_total\":7}}}}"
            ))
            .unwrap()
        };
        let merged = merge_runs(Some(&doc("[1,2]")), doc("[3]"));
        assert_eq!(merged, doc("[1,2,3]"));
        assert_eq!(merge_runs(None, doc("[3]")), doc("[3]"));
    }

    #[test]
    fn arguments_are_validated() {
        let parse = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        let args = parse(&[
            "--workload",
            "durable_dml",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("durable_dml"));
        assert_eq!((args.seed, args.seconds, args.trace), (9, 3.0, true));
        assert_eq!(parse(&[]).unwrap().seed, data::BASE_SEED);
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "-1"],
            &["--seconds", "1e9"],
            &["--trace", "2"],
            &["--runs", "0"],
            &["--compare", "only-one"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
