//! The experiments harness: regenerates every table of EXPERIMENTS.md
//! (the paper's figures F1–F4 as correctness checks, plus the measurement
//! experiments E3–E6 and E9 its architectural claims imply). What an
//! end-to-end workload of the kernel benchmark measures is not repeated
//! here: coupled vs decoupled and scaling (`basket_cold`), postprocessing
//! vs rule count (`basket_rule_explosion`), the artifact store
//! (`refine_session`).
//!
//! Run with: `cargo run --release -p tcdm-bench --bin experiments`
//!
//! Flags:
//!
//! ```text
//!   --quick                small workloads, one repetition (CI smoke)
//!   --json <name>          also write the BENCH_<name>.json artifact
//!   --check <golden>       gate on the checked-in rule-count summary
//!   --write-golden <file>  regenerate the golden summary
//! ```
//!
//! Timings inform, rule counts gate: `--check` compares only the
//! deterministic output sizes against the golden file and exits 1 on
//! any drift (see `docs/OBSERVABILITY.md`).

use std::time::{Duration, Instant};

use minerule::algo::{default_pool, SimpleInput};

use minerule::paper_example::{run_paper_example, FIGURE_2B};
use minerule::MineRuleEngine;
use tcdm_bench::report::Report;
use tcdm_bench::{quest_db, retail_db, temporal_statement, temporal_statement_no_mining_cond};

fn best_of<R>(n: usize, mut f: impl FnMut() -> R) -> (Duration, R) {
    let mut best = Duration::MAX;
    let mut result = None;
    for _ in 0..n {
        let t = Instant::now();
        let r = f();
        let d = t.elapsed();
        if d < best {
            best = d;
        }
        result = Some(r);
    }
    (best, result.unwrap())
}

/// The joined candidates of the engine's general-core runs so far.
fn lattice_candidates(engine: &MineRuleEngine) -> u64 {
    engine.metrics_snapshot().counter("core.lattice.candidates")
}

fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Harness configuration: workload scale plus repetition count.
#[derive(Clone, Copy)]
struct Mode {
    quick: bool,
}

impl Mode {
    /// Repetitions for a best-of timing loop (quick mode measures once —
    /// CI gates on counts, not milliseconds).
    fn reps(&self, full: usize) -> usize {
        if self.quick {
            1
        } else {
            full
        }
    }

    /// Pick a workload size by mode.
    fn size(&self, quick: usize, full: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

const USAGE: &str = "\
usage: experiments [--quick] [--json <name>] [--check <golden>] [--write-golden <file>]

  --quick                small workloads, single repetition (CI smoke mode)
  --json <name>          write results to BENCH_<name>.json (schema-versioned)
  --check <golden>       compare rule counts against a golden summary; exit 1 on drift
  --write-golden <file>  write the golden rule-count summary for --check";

fn main() {
    let mut quick = false;
    let mut json_name: Option<String> = None;
    let mut check: Option<String> = None;
    let mut write_golden: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--json" => json_name = Some(args.next().unwrap_or_else(|| die("--json needs a name"))),
            "--check" => check = Some(args.next().unwrap_or_else(|| die("--check needs a file"))),
            "--write-golden" => {
                write_golden = Some(
                    args.next()
                        .unwrap_or_else(|| die("--write-golden needs a file")),
                )
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => die(&format!("unknown flag '{other}'\n{USAGE}")),
        }
    }

    let mode = Mode { quick };
    let mut report = Report::new(json_name.as_deref().unwrap_or("local"), quick);

    println!("# Experiment harness — tightly-coupled MINE RULE architecture");
    if quick {
        println!("\n(quick mode: small workloads, single repetition)");
    }
    println!();

    f2_paper_example(&mut report);
    e3_borderline(&mut report, mode);
    e4_algorithm_pool(&mut report, mode);
    e5_lattice_order(&mut report, mode);
    e6_generality_overhead(&mut report, mode);
    e9_pool_parameters(&mut report, mode);

    println!("\nall experiments completed.");

    if let Some(name) = &json_name {
        let path = format!("BENCH_{name}.json");
        std::fs::write(&path, report.to_json()).unwrap_or_else(|e| die(&format!("{path}: {e}")));
        println!("wrote {path}");
    }
    if let Some(path) = &write_golden {
        std::fs::write(path, report.golden_summary())
            .unwrap_or_else(|e| die(&format!("{path}: {e}")));
        println!("wrote golden summary to {path}");
    }
    if let Some(path) = &check {
        let golden = std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
        match report.check_golden(&golden) {
            Ok(()) => println!("golden check against {path}: ok"),
            Err(problems) => {
                eprintln!("golden check against {path} FAILED:");
                for p in &problems {
                    eprintln!("  {p}");
                }
                std::process::exit(1);
            }
        }
    }
}

fn die(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// F2 — Figure 2b reproduced exactly.
fn f2_paper_example(report: &mut Report) {
    println!("## F2 — Figure 2b (FilteredOrderedSets), paper vs measured\n");
    let started = Instant::now();
    let (_, outcome) = run_paper_example().expect("paper example");
    let elapsed = started.elapsed();
    println!("| BODY | HEAD | paper s | paper c | measured s | measured c |");
    println!("|---|---|---|---|---|---|");
    for (body, head, s, c) in FIGURE_2B {
        let got = outcome
            .rules
            .iter()
            .find(|r| r.body[..] == body[..] && r.head[..] == head[..])
            .expect("rule present");
        println!(
            "| {{{}}} | {{{}}} | {s} | {c} | {} | {} |",
            body.join(", "),
            head.join(", "),
            got.support,
            got.confidence
        );
    }
    assert_eq!(outcome.rules.len(), FIGURE_2B.len());
    report.case(
        "F2",
        "filtered-ordered-sets",
        Some(outcome.rules.len() as u64),
        elapsed,
    );
    println!("\nexact match: {} rules, no extras ✓\n", FIGURE_2B.len());
}

fn e3_borderline(report: &mut Report, mode: Mode) {
    println!("## E3 — borderline ablation: elementary rules in SQL (Q8) vs in core\n");
    println!("| customers | variant | preprocess (ms) | core (ms) | total (ms) | rules |");
    println!("|---|---|---|---|---|---|");
    let sizes: &[usize] = if mode.quick { &[150] } else { &[200, 400] };
    for &n in sizes {
        for (variant, stmt) in [
            ("mining cond in SQL", temporal_statement(0.05, 0.2)),
            (
                "elementary in core",
                temporal_statement_no_mining_cond(0.05, 0.2),
            ),
        ] {
            let (total, out) = best_of(mode.reps(3), || {
                let mut db = retail_db(n, 5);
                MineRuleEngine::new().execute(&mut db, &stmt).unwrap()
            });
            report.case(
                "E3",
                format!("customers={n} {variant}"),
                Some(out.rules.len() as u64),
                total,
            );
            println!(
                "| {n} | {variant} | {} | {} | {} | {} |",
                ms(out.timings.preprocess),
                ms(out.timings.core),
                ms(out.timings.total()),
                out.rules.len()
            );
        }
    }
    println!("\n(the SQL variant shifts elementary-rule work from core to preprocess)\n");
}

/// E4 — the algorithm pool across support thresholds.
fn e4_algorithm_pool(report: &mut Report, mode: Mode) {
    let baskets = mode.size(600, 1500);
    println!("## E4 — algorithm pool on T8.I3 Quest data ({baskets} baskets)\n");
    let db = quest_db(baskets, 77);
    let rs = {
        let mut db = db;
        db.query("SELECT tr, item FROM Baskets").unwrap()
    };
    let mut groups: Vec<Vec<u32>> = Vec::new();
    let mut current_tr = -1i64;
    let mut item_ids = std::collections::HashMap::new();
    for row in rs.rows() {
        let tr = row[0].as_int().unwrap();
        if tr != current_tr {
            groups.push(Vec::new());
            current_tr = tr;
        }
        let next = item_ids.len() as u32;
        let id = *item_ids.entry(row[1].to_string()).or_insert(next);
        groups.last_mut().unwrap().push(id);
    }
    for g in &mut groups {
        g.sort_unstable();
        g.dedup();
    }
    let total = groups.len() as u32;

    let supports: &[f64] = if mode.quick {
        &[0.05, 0.02]
    } else {
        &[0.05, 0.02, 0.01]
    };
    println!("| algorithm | {} | itemsets @lowest |", {
        let cells: Vec<String> = supports.iter().map(|s| format!("s={s} (ms)")).collect();
        cells.join(" | ")
    });
    println!("|---|{}---|", "---|".repeat(supports.len()));
    for miner in default_pool() {
        let mut cells = Vec::new();
        let mut last_count = 0;
        for &s in supports {
            let input = SimpleInput {
                groups: groups.clone().into(),
                total_groups: total,
                min_groups: ((total as f64 * s).ceil() as u32).max(1),
            };
            let (d, large) = best_of(mode.reps(3), || miner.mine(&input));
            last_count = large.len();
            report.case(
                "E4",
                format!("{} s={s}", miner.name()),
                Some(large.len() as u64),
                d,
            );
            cells.push(ms(d));
        }
        println!(
            "| {} | {} | {last_count} |",
            miner.name(),
            cells.join(" | ")
        );
    }
    println!();
}

/// E5 — the lattice's candidate count under min-parent expansion.
fn e5_lattice_order(report: &mut Report, mode: Mode) {
    println!("## E5 — lattice expansion from the min-cardinality parent (§4.3.2)\n");
    let customers = mode.size(120, 250);
    let statement = "MINE RULE Wide AS \
        SELECT DISTINCT 1..n item AS BODY, 1..3 item AS HEAD, SUPPORT, CONFIDENCE \
        WHERE BODY.price >= 0 \
        FROM Purchase GROUP BY customer \
        EXTRACTING RULES WITH SUPPORT: 0.08, CONFIDENCE: 0.05";
    println!("| order | core (ms) | lattice.candidates | rules |");
    println!("|---|---|---|---|");
    let (_, (out, candidates)) = best_of(mode.reps(3), || {
        let mut db = retail_db(customers, 13);
        let engine = MineRuleEngine::new();
        let out = engine.execute(&mut db, statement).unwrap();
        (out, lattice_candidates(&engine))
    });
    let rules = out.rules.len() as u64;
    report.lattice_case("E5", "min-parent", rules, candidates, out.timings.core);
    println!(
        "| min-cardinality parent (paper) | {} | {candidates} | {rules} |\n",
        ms(out.timings.core)
    );
}

/// E6 — generality overhead.
fn e6_generality_overhead(report: &mut Report, mode: Mode) {
    println!("## E6 — simple core vs forced general lattice (same statement)\n");
    let baskets = mode.size(300, 800);
    let statement = "MINE RULE Both AS \
        SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE \
        FROM Baskets GROUP BY tr \
        EXTRACTING RULES WITH SUPPORT: 0.03, CONFIDENCE: 0.3";
    println!("| path | core (ms) | lattice.candidates | rules |");
    println!("|---|---|---|---|");
    let mut rule_sets = Vec::new();
    for (name, key, forced) in [
        ("simple pool (apriori)", "simple", false),
        ("general lattice", "general", true),
    ] {
        let (_, (out, candidates)) = best_of(mode.reps(3), || {
            let mut db = quest_db(baskets, 17);
            let mut engine = MineRuleEngine::new();
            engine.core.force_general = forced;
            let out = engine.execute(&mut db, statement).unwrap();
            (out, lattice_candidates(&engine))
        });
        let rules = out.rules.len() as u64;
        let time = out.timings.core;
        if forced {
            report.lattice_case("E6", key, rules, candidates, time);
        } else {
            report.case("E6", key, Some(rules), time);
        }
        let candidates = if forced {
            candidates.to_string()
        } else {
            "—".into()
        };
        println!("| {name} | {} | {candidates} | {rules} |", ms(time));
        rule_sets.push(out.rules);
    }
    assert_eq!(rule_sets[0], rule_sets[1], "paths agree on results");
    println!("\n(identical rule sets asserted)\n");
}

/// E9 — pool parameter ablations.
fn e9_pool_parameters(report: &mut Report, mode: Mode) {
    use minerule::algo::dhp::Dhp;
    use minerule::algo::partition::Partition;
    use minerule::algo::sampling::Sampling;
    use minerule::algo::ItemsetMiner;

    let baskets = mode.size(500, 1500);
    println!("## E9 — pool parameter ablations ({baskets} baskets, s=0.02)\n");
    let data = datagen::generate_quest(&datagen::QuestConfig {
        transactions: baskets,
        avg_transaction_size: 8.0,
        avg_pattern_size: 3.0,
        patterns: 50,
        items: 200,
        seed: 101,
        ..datagen::QuestConfig::default()
    });
    let total = data.transactions.len() as u32;
    let input = SimpleInput {
        groups: data.transactions.into(),
        total_groups: total,
        min_groups: ((total as f64 * 0.02).ceil() as u32).max(1),
    };

    println!("### partition count\n");
    println!("| partitions | time (ms) |");
    println!("|---|---|");
    let partition_counts: &[usize] = if mode.quick {
        &[1, 4]
    } else {
        &[1, 2, 4, 8, 16]
    };
    for &parts in partition_counts {
        let (d, large) = best_of(mode.reps(3), || {
            Partition { partitions: parts }.mine(&input)
        });
        report.case(
            "E9",
            format!("partition parts={parts}"),
            Some(large.len() as u64),
            d,
        );
        println!("| {parts} | {} |", ms(d));
    }

    println!("\n### DHP hash-table size\n");
    println!("| buckets | time (ms) |");
    println!("|---|---|");
    let bucket_sizes: &[usize] = if mode.quick {
        &[1 << 12]
    } else {
        &[1 << 8, 1 << 12, 1 << 16, 1 << 20]
    };
    for &buckets in bucket_sizes {
        let (d, large) = best_of(mode.reps(3), || Dhp { buckets }.mine(&input));
        report.case(
            "E9",
            format!("dhp buckets={buckets}"),
            Some(large.len() as u64),
            d,
        );
        println!("| {buckets} | {} |", ms(d));
    }

    println!("\n### sampling fraction\n");
    println!("| fraction | time (ms) |");
    println!("|---|---|");
    let fractions: &[f64] = if mode.quick {
        &[0.5]
    } else {
        &[0.1, 0.25, 0.5, 0.75]
    };
    for &fraction in fractions {
        let miner = Sampling {
            sample_fraction: fraction,
            ..Sampling::default()
        };
        let (d, large) = best_of(mode.reps(3), || miner.mine(&input));
        report.case(
            "E9",
            format!("sampling fraction={fraction}"),
            Some(large.len() as u64),
            d,
        );
        println!("| {fraction} | {} |", ms(d));
    }
    println!();
}
