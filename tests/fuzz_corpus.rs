//! Regression corpus + fuzz-harness contract tests, under plain
//! `cargo test`.
//!
//! Every repro file in `tests/fuzz_corpus/` replays clean across the
//! quick configuration matrix (the full matrix runs in CI's `fuzz-smoke`
//! job and nightly). The remaining tests pin the harness itself: an
//! injected skew is caught, the shrinker converges to a tiny case that
//! still reproduces, and the shrunk case round-trips through the repro
//! format.

use std::path::{Path, PathBuf};

use tcdm_fuzz::grammar::{gen_case, GenConfig};
use tcdm_fuzz::matrix::{
    diverges_between, run_case, Config, DivergenceKind, Matrix, MatrixOptions, Skew,
};
use tcdm_fuzz::repro::{parse_repro, to_repro, ReproHeader};
use tcdm_fuzz::shrink::shrink;
use tcdm_fuzz::{FuzzCase, Op};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fuzz_corpus")
}

fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tcdm_fuzz_test_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn quick_opts(tag: &str) -> MatrixOptions {
    MatrixOptions {
        matrix: Matrix::Quick,
        work_dir: work_dir(tag),
        ..MatrixOptions::default()
    }
}

#[test]
fn corpus_replays_clean_across_the_quick_matrix() {
    let dir = corpus_dir();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "repro"))
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 8,
        "corpus has shrunk to {} entries — regressions must be added, not removed",
        entries.len()
    );
    let opts = quick_opts("corpus");
    for (i, path) in entries.iter().enumerate() {
        let text = std::fs::read_to_string(path).unwrap();
        let repro = parse_repro(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            !repro.case.ops.is_empty(),
            "{}: corpus entry has no checked operations",
            path.display()
        );
        let report = run_case(&repro.case, &opts, &format!("corpus{i}"))
            .unwrap_or_else(|d| panic!("{} diverged:\n{d}", path.display()));
        assert_eq!(report.configs, Matrix::Quick.configs().len());
    }
    let _ = std::fs::remove_dir_all(&opts.work_dir);
}

#[test]
fn injected_skew_is_caught_and_shrinks_to_a_tiny_repro() {
    // A deliberately skewed runner (the production paths drop the last
    // SELECT row) must diverge on a generated case, and the shrinker
    // must take the case down to a handful of rows that still
    // reproduces — the acceptance bar for the whole harness.
    let opts = MatrixOptions {
        skew: Skew::ProductionDropsLastRow,
        ..quick_opts("skew")
    };
    let gen_cfg = GenConfig::default();
    let mut caught: Option<(FuzzCase, Config, Config)> = None;
    for i in 0..16 {
        let case = gen_case(7, i, &gen_cfg);
        if let Err(div) = run_case(&case, &opts, &format!("skew{i}")) {
            assert_eq!(div.kind, DivergenceKind::Matrix);
            assert!(div.config.contains("reference=off"), "{}", div.config);
            let b = tcdm_fuzz::matrix::config_by_label(Matrix::Quick, &div.config).unwrap();
            caught = Some((case, Config::baseline(), b));
            break;
        }
    }
    let (case, a, b) = caught.expect("skewed runner never diverged in 16 cases");

    let mut oracle = |c: &FuzzCase| {
        diverges_between(
            c,
            &a,
            &b,
            Skew::ProductionDropsLastRow,
            &opts.work_dir,
            "shrinkt",
        )
        .is_some()
    };
    assert!(oracle(&case), "pair oracle must reproduce the divergence");
    let small = shrink(&case, &mut oracle);
    assert!(oracle(&small), "shrunk case must still reproduce");
    assert!(
        small.row_count() <= 10,
        "shrunk case still has {} rows",
        small.row_count()
    );
    assert!(
        small.ops.len() <= 2,
        "shrunk case still has {} ops",
        small.ops.len()
    );

    // The shrunk repro round-trips through the replayer format and the
    // parsed case still reproduces the divergence.
    let header = ReproHeader {
        kind: Some("matrix".into()),
        config: Some(b.label()),
        against: Some(a.label()),
        skew: Some("production-drop-row".into()),
        note: Some("tests/fuzz_corpus.rs".into()),
    };
    let text = to_repro(&small, &header);
    let parsed = parse_repro(&text).expect("shrunk repro parses");
    assert_eq!(parsed.case, small);
    assert_eq!(parsed.header, header);
    assert!(oracle(&parsed.case), "replayed case must still reproduce");

    // Without the skew the same case is clean: the divergence was the
    // injected fault, not a real bug.
    assert!(
        diverges_between(&small, &a, &b, Skew::None, &opts.work_dir, "shrinkc").is_none(),
        "shrunk case must be clean without the injected skew"
    );
    let _ = std::fs::remove_dir_all(&opts.work_dir);
}

#[test]
fn mine_skew_is_caught_on_the_reference_axis() {
    let opts = MatrixOptions {
        skew: Skew::ProductionDropsLastRule,
        ..quick_opts("mskew")
    };
    let gen_cfg = GenConfig::default();
    for i in 0..16 {
        let case = gen_case(3, i, &gen_cfg);
        if let Err(div) = run_case(&case, &opts, &format!("mskew{i}")) {
            assert!(
                div.config.contains("reference=off"),
                "skew must surface on a production-path config: {}",
                div.config
            );
            assert!(
                matches!(case.ops.get(div.op.unwrap()), Some(Op::Mine(_))),
                "divergence must point at a mine op"
            );
            let _ = std::fs::remove_dir_all(&opts.work_dir);
            return;
        }
    }
    panic!("mine skew never diverged in 16 cases");
}

#[test]
fn generated_cases_pass_the_quick_matrix() {
    // A small always-on slice of the fuzzer itself: fresh cases from a
    // fixed seed, against the quick matrix with the reference oracle.
    let opts = quick_opts("gen");
    let gen_cfg = GenConfig::default();
    for i in 0..6 {
        let case = gen_case(0xC0FFEE, i, &gen_cfg);
        run_case(&case, &opts, &format!("gen{i}"))
            .unwrap_or_else(|d| panic!("seed=0xC0FFEE case={i} diverged:\n{d}"));
    }
    let _ = std::fs::remove_dir_all(&opts.work_dir);
}
