//! `tcdm-fuzz` — drive the grammar-based differential fuzzer.
//!
//! Generate mode (default): produce `--cases` random cases from
//! `--seed`, put each statement's mangled copies through both parsers
//! (`tcdm_fuzz::frontend`), run each case across the configuration
//! matrix, and on the first divergence shrink it with the cheap pair
//! oracle and write a self-contained repro file under `--out`.
//!
//! Replay mode (`--replay FILE...`): parse repro files and run each
//! across the matrix, exiting non-zero if any still diverges.
//!
//! See `docs/FUZZING.md` for the full tour.

use std::path::PathBuf;
use std::process::ExitCode;

use tcdm_fuzz::grammar::{gen_case, GenConfig};
use tcdm_fuzz::matrix::{
    config_by_label, diverges_between, diverges_from_reference, run_case, Config, Divergence,
    DivergenceKind, Matrix, MatrixOptions, Skew,
};
use tcdm_fuzz::repro::{parse_repro, to_repro, ReproHeader};
use tcdm_fuzz::shrink::shrink;
use tcdm_fuzz::FuzzCase;

struct Args {
    seed: u64,
    cases: u64,
    max_rows: usize,
    matrix: Matrix,
    out: PathBuf,
    replay: Vec<PathBuf>,
    inject: Skew,
    reference_max_rows: usize,
    work_dir: Option<PathBuf>,
    emit_corpus: Option<PathBuf>,
}

const USAGE: &str = "\
tcdm-fuzz — grammar-based differential fuzzer for the mining stack

USAGE:
    tcdm-fuzz [OPTIONS]

OPTIONS:
    --seed <N>                RNG seed for case generation (default 7)
    --cases <N>               number of cases to generate (default 64)
    --max-rows <N>            row budget per case (default 36)
    --matrix <quick|full>     configuration matrix to run (default full)
    --out <DIR>               where shrunk repro files go (default fuzz_repros)
    --replay <FILE>           replay a repro file instead of generating
                              (repeatable)
    --inject <SKEW>           inject a deliberate fault to prove the harness
                              catches it: none | production-drop-row |
                              production-drop-rule (default none)
    --reference-max-rows <N>  reference-oracle gate (default 40)
    --work-dir <DIR>          scratch dir for paged-storage runs
                              (default: /dev/shm or the system temp dir)
    --emit-corpus <DIR>       also write every *passing* generated case as a
                              corpus repro file into DIR
    -h, --help                this text
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 7,
        cases: 64,
        max_rows: 36,
        matrix: Matrix::Full,
        out: PathBuf::from("fuzz_repros"),
        replay: Vec::new(),
        inject: Skew::None,
        reference_max_rows: 40,
        work_dir: None,
        emit_corpus: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n\n{USAGE}"))
        };
        match flag.as_str() {
            "--seed" => args.seed = parse_num(&value("--seed")?)?,
            "--cases" => args.cases = parse_num(&value("--cases")?)?,
            "--max-rows" => args.max_rows = parse_num(&value("--max-rows")?)? as usize,
            "--matrix" => {
                let v = value("--matrix")?;
                args.matrix = Matrix::parse(&v)
                    .ok_or_else(|| format!("unknown matrix `{v}` (quick | full)"))?;
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--replay" => args.replay.push(PathBuf::from(value("--replay")?)),
            "--inject" => {
                let v = value("--inject")?;
                args.inject = Skew::parse(&v).ok_or_else(|| {
                    format!(
                        "unknown skew `{v}` (none | production-drop-row | production-drop-rule)"
                    )
                })?;
            }
            "--reference-max-rows" => {
                args.reference_max_rows = parse_num(&value("--reference-max-rows")?)? as usize
            }
            "--work-dir" => args.work_dir = Some(PathBuf::from(value("--work-dir")?)),
            "--emit-corpus" => args.emit_corpus = Some(PathBuf::from(value("--emit-corpus")?)),
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
        }
    }
    Ok(args)
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.parse::<u64>().map_err(|_| format!("not a number: `{s}`"))
}

/// Shrink a diverging case with the cheapest oracle that still
/// reproduces the original divergence kind.
fn shrink_divergence(case: &FuzzCase, div: &Divergence, opts: &MatrixOptions) -> FuzzCase {
    match div.kind {
        DivergenceKind::Reference => {
            let mut oracle =
                |c: &FuzzCase| diverges_from_reference(c, &opts.work_dir, "shrink").is_some();
            shrink(case, &mut oracle)
        }
        DivergenceKind::Matrix => {
            let a = config_by_label(opts.matrix, &div.against).unwrap_or_else(Config::baseline);
            let Some(b) = config_by_label(opts.matrix, &div.config) else {
                return case.clone();
            };
            let mut oracle = |c: &FuzzCase| {
                diverges_between(c, &a, &b, opts.skew, &opts.work_dir, "shrink").is_some()
            };
            shrink(case, &mut oracle)
        }
    }
}

fn write_repro(dir: &PathBuf, name: &str, case: &FuzzCase, header: &ReproHeader) -> PathBuf {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    let path = dir.join(name);
    std::fs::write(&path, to_repro(case, header))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    path
}

fn skew_name(s: Skew) -> Option<String> {
    match s {
        Skew::None => None,
        Skew::ProductionDropsLastRow => Some("production-drop-row".into()),
        Skew::ProductionDropsLastRule => Some("production-drop-rule".into()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tcdm-fuzz: {e}");
            return ExitCode::from(2);
        }
    };

    let opts = MatrixOptions {
        matrix: args.matrix,
        check_reference: true,
        reference_max_rows: args.reference_max_rows,
        skew: args.inject,
        work_dir: args
            .work_dir
            .clone()
            .unwrap_or_else(tcdm_fuzz::matrix::default_work_dir),
    };
    std::fs::create_dir_all(&opts.work_dir)
        .unwrap_or_else(|e| panic!("cannot create work dir {}: {e}", opts.work_dir.display()));
    let configs = opts.matrix.configs().len();

    let code = if args.replay.is_empty() {
        run_generate(&args, &opts, configs)
    } else {
        run_replay(&args, &opts, configs)
    };
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    code
}

fn run_generate(args: &Args, opts: &MatrixOptions, configs: usize) -> ExitCode {
    println!(
        "tcdm-fuzz: seed={} cases={} max-rows={} matrix={:?} ({configs} configs){}",
        args.seed,
        args.cases,
        args.max_rows,
        opts.matrix,
        match opts.skew {
            Skew::None => String::new(),
            s => format!(" inject={}", skew_name(s).unwrap()),
        }
    );
    let gen_cfg = GenConfig {
        max_rows: args.max_rows,
    };
    let mut reference_mines = 0usize;
    for i in 0..args.cases {
        let case = gen_case(args.seed, i, &gen_cfg);
        for op in &case.ops {
            if let Err(e) = tcdm_fuzz::frontend::mangle(op.text(), args.seed ^ i) {
                println!("  case {}/{}: FRONT END: {e}", i + 1, args.cases);
                return ExitCode::FAILURE;
            }
        }
        match run_case(&case, opts, &format!("c{i}")) {
            Ok(report) => {
                reference_mines += report.reference_mines;
                if (i + 1) % 8 == 0 || i + 1 == args.cases {
                    println!(
                        "  case {}/{}: ok ({} rows, {} ops)",
                        i + 1,
                        args.cases,
                        case.row_count(),
                        case.ops.len()
                    );
                }
                if let Some(dir) = &args.emit_corpus {
                    let header = ReproHeader {
                        note: Some(format!("seed={} case={i} passing corpus entry", args.seed)),
                        ..ReproHeader::default()
                    };
                    let name = format!("seed{}_case{i}.repro", args.seed);
                    write_repro(dir, &name, &case, &header);
                }
            }
            Err(div) => {
                println!("  case {}/{}: DIVERGED", i + 1, args.cases);
                println!("{div}");
                println!(
                    "  shrinking ({} rows, {} ops)...",
                    case.row_count(),
                    case.ops.len()
                );
                let small = shrink_divergence(&case, &div, opts);
                println!(
                    "  shrunk to {} rows, {} ops",
                    small.row_count(),
                    small.ops.len()
                );
                let header = ReproHeader {
                    kind: Some(div.kind.name().to_string()),
                    config: Some(div.config.clone()),
                    against: Some(div.against.clone()),
                    skew: skew_name(opts.skew),
                    note: Some(format!("seed={} case={i}", args.seed)),
                };
                let name = format!("diverged_seed{}_case{i}.repro", args.seed);
                let path = write_repro(&args.out, &name, &small, &header);
                println!("  repro written to {}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "tcdm-fuzz: {} cases x {configs} configs clean ({reference_mines} mine statements \
         cross-checked against the reference oracle)",
        args.cases
    );
    ExitCode::SUCCESS
}

fn run_replay(args: &Args, opts: &MatrixOptions, configs: usize) -> ExitCode {
    let mut failed = false;
    for (i, path) in args.replay.iter().enumerate() {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("tcdm-fuzz: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let repro = match parse_repro(&text) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("tcdm-fuzz: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        match run_case(&repro.case, opts, &format!("r{i}")) {
            Ok(_) => println!("replay {}: clean across {configs} configs", path.display()),
            Err(div) => {
                failed = true;
                println!("replay {}: still diverges", path.display());
                println!("{div}");
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
