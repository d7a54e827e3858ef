//! The configuration-matrix executor: run one case under many
//! configurations and demand identical observable behaviour.
//!
//! Every configuration replays the same setup script and operation list
//! on its own database. Per operation the runner records a rendered
//! *outcome* — sorted result rows for a `SELECT`, a bit-exact rule
//! signature for a `MINE RULE`, affected-row counts for DML, or the
//! error text — and any difference from the baseline configuration is a
//! [`Divergence`]. Small cases are additionally checked against the
//! brute-force [`minerule::reference`] oracle.
//!
//! On the production configurations a query's outcome also carries any
//! disagreement between its `EXPLAIN` and its run: the number of
//! `pushdown to factor` lines must equal the conjuncts the executor
//! pushed (`planner.pushed_filters`). The baseline runs the reference
//! paths, which push nothing, so a disagreement is a divergence from it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use minerule::reference::reference_mine;
use minerule::{parse_mine_rule, DecodedRule, MineRuleEngine};
use relational::sql::ast::Statement;
use relational::sql::parser::parse_statement;
use relational::{Database, StorageBackend};

use crate::{FuzzCase, Op};

// ---------------------------------------------------------------------
// Configurations
// ---------------------------------------------------------------------

/// One point of the configuration cross-product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Run every layer on its reference path
    /// ([`Database::set_reference_paths`]) instead of the production
    /// selection.
    pub reference: bool,
    /// The engine's session artifact store (`MineRuleEngine::with_cache`).
    pub cache: bool,
    pub storage: StorageBackend,
}

fn on_off(state: bool) -> &'static str {
    if state {
        "on"
    } else {
        "off"
    }
}

impl Config {
    /// The pinned comparison baseline: the least clever point of the
    /// matrix — reference paths (interpreted expressions, row-at-a-time
    /// flow, written-order join fold, scans, list gid-sets, unfused
    /// preprocessing), cache off, memory storage.
    pub fn baseline() -> Config {
        Config {
            reference: true,
            cache: false,
            storage: StorageBackend::Memory,
        }
    }

    /// Human-readable knob listing, also used in repro headers.
    pub fn label(&self) -> String {
        format!(
            "reference={} cache={} storage={}",
            on_off(self.reference),
            on_off(self.cache),
            self.storage,
        )
    }

    /// Short filesystem-safe slug for per-config scratch directories.
    fn slug(&self) -> String {
        self.label().replace([' ', '='], "_")
    }
}

/// Which slice of the cross-product a run covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Matrix {
    /// One configuration per axis value plus production mixes
    /// (6 configurations) — the per-`cargo test` corpus budget.
    Quick,
    /// The full cross-product: 2 × 2 × 2 = 8 configurations — the
    /// fuzzing budget.
    Full,
}

impl Matrix {
    /// Parse a matrix name (`quick` | `full`).
    pub fn parse(name: &str) -> Option<Matrix> {
        match name.to_ascii_lowercase().as_str() {
            "quick" => Some(Matrix::Quick),
            "full" => Some(Matrix::Full),
            _ => None,
        }
    }

    /// The configurations of this matrix; the baseline is always first.
    pub fn configs(&self) -> Vec<Config> {
        let base = Config::baseline();
        let production = Config {
            reference: false,
            ..base
        };
        match self {
            Matrix::Quick => vec![
                base,
                production,
                Config {
                    cache: true,
                    ..base
                },
                Config {
                    storage: StorageBackend::Paged,
                    ..base
                },
                Config {
                    cache: true,
                    ..production
                },
                Config {
                    cache: true,
                    storage: StorageBackend::Paged,
                    ..production
                },
            ],
            Matrix::Full => {
                let mut out = vec![base];
                for reference in [true, false] {
                    for cache in [false, true] {
                        for storage in [StorageBackend::Memory, StorageBackend::Paged] {
                            let c = Config {
                                reference,
                                cache,
                                storage,
                            };
                            if c != base {
                                out.push(c);
                            }
                        }
                    }
                }
                out
            }
        }
    }
}

// ---------------------------------------------------------------------
// Injected skews (for proving the harness catches real divergences)
// ---------------------------------------------------------------------

/// A deliberate fault injected into the runner, used by tests and
/// `tcdm-fuzz --inject` to prove that a divergence is caught, shrunk and
/// reproduced. [`Skew::None`] in normal operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Skew {
    #[default]
    None,
    /// Off the reference paths, silently drop the last row of every
    /// non-empty SELECT result (models a codegen bug in the production
    /// SQL path).
    ProductionDropsLastRow,
    /// Off the reference paths, silently drop the last mined rule
    /// (models an intersection bug in the hybrid gid-set representation).
    ProductionDropsLastRule,
}

impl Skew {
    /// Parse a skew name (`none` | `production-drop-row` |
    /// `production-drop-rule`).
    pub fn parse(name: &str) -> Option<Skew> {
        match name.to_ascii_lowercase().as_str() {
            "none" => Some(Skew::None),
            "production-drop-row" => Some(Skew::ProductionDropsLastRow),
            "production-drop-rule" => Some(Skew::ProductionDropsLastRule),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Options / results
// ---------------------------------------------------------------------

/// Knobs of the matrix runner.
#[derive(Debug, Clone)]
pub struct MatrixOptions {
    pub matrix: Matrix,
    /// Check small cases against the brute-force reference oracle.
    pub check_reference: bool,
    /// Cases with at most this many data rows get the reference pass
    /// (the oracle is exponential in basket width, so it stays gated).
    pub reference_max_rows: usize,
    /// Injected fault, [`Skew::None`] in normal operation.
    pub skew: Skew,
    /// Scratch directory for paged-storage configurations.
    pub work_dir: PathBuf,
}

impl Default for MatrixOptions {
    fn default() -> MatrixOptions {
        MatrixOptions {
            matrix: Matrix::Full,
            check_reference: true,
            reference_max_rows: 40,
            skew: Skew::None,
            work_dir: default_work_dir(),
        }
    }
}

/// Scratch root for paged-storage runs: tmpfs when the host has it (WAL
/// fsyncs are ~free there), the system temp dir otherwise.
pub fn default_work_dir() -> PathBuf {
    let shm = Path::new("/dev/shm");
    let base = if shm.is_dir() {
        shm.to_path_buf()
    } else {
        std::env::temp_dir()
    };
    base.join(format!("tcdm_fuzz_{}", std::process::id()))
}

/// What a divergence was found against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// A configuration disagreed with the baseline configuration.
    Matrix,
    /// The pipeline disagreed with the brute-force reference oracle.
    Reference,
}

impl DivergenceKind {
    pub fn name(&self) -> &'static str {
        match self {
            DivergenceKind::Matrix => "matrix",
            DivergenceKind::Reference => "reference",
        }
    }
}

/// A reproducible disagreement between two executions of one case.
#[derive(Debug, Clone)]
pub struct Divergence {
    pub kind: DivergenceKind,
    /// Label of the configuration that disagreed.
    pub config: String,
    /// What it was compared against (a configuration label or
    /// `reference`).
    pub against: String,
    /// Index into `case.ops` (`None` = the setup script diverged).
    pub op: Option<usize>,
    /// The statement at that index, for the report.
    pub statement: String,
    pub expected: String,
    pub actual: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "divergence[{}]: {}", self.kind.name(), self.config)?;
        writeln!(f, "  against:   {}", self.against)?;
        writeln!(f, "  statement: {}", self.statement)?;
        writeln!(f, "  expected:  {}", self.expected.replace('\n', " | "))?;
        write!(f, "  actual:    {}", self.actual.replace('\n', " | "))
    }
}

/// Summary of a clean case run.
#[derive(Debug, Clone, Default)]
pub struct CaseReport {
    /// Configurations executed.
    pub configs: usize,
    /// MINE RULE statements cross-checked against the reference oracle.
    pub reference_mines: usize,
}

// ---------------------------------------------------------------------
// Single-configuration execution
// ---------------------------------------------------------------------

struct ConfigRun {
    /// Rendered outcome per slot: index 0 is the setup script, then one
    /// slot per `case.ops` entry.
    outcomes: Vec<String>,
    /// Decoded rules per op index, for mine ops that succeeded.
    rules: BTreeMap<usize, Vec<DecodedRule>>,
}

/// Bit-exact signature of a rule set (floats compared by bit pattern).
pub fn signature(rules: &[DecodedRule]) -> Vec<String> {
    rules
        .iter()
        .map(|r| {
            format!(
                "{:?}=>{:?} s={:016x} c={:016x}",
                r.body,
                r.head,
                r.support.to_bits(),
                r.confidence.to_bits()
            )
        })
        .collect()
}

fn render_rows(rs: &relational::ResultSet) -> String {
    let mut lines: Vec<String> = rs.rows().iter().map(|row| format!("{row:?}")).collect();
    lines.sort();
    lines.join("\n")
}

/// The `pushdown to factor` lines EXPLAIN prints for a query, its
/// subqueries' included, or `None` when the check does not apply (not a
/// SELECT, or EXPLAIN itself fails).
fn explained_pushdowns(db: &mut Database, sql: &str) -> Option<u64> {
    if !matches!(parse_statement(sql).ok()?, Statement::Select(_)) {
        return None;
    }
    let plan = db.query(&format!("EXPLAIN {sql}")).ok()?;
    let lines = plan.rows().iter().map(|r| r[0].to_string());
    Some(lines.filter(|l| l.contains("pushdown to factor")).count() as u64)
}

fn run_config(
    case: &FuzzCase,
    config: &Config,
    skew: Skew,
    work_dir: &Path,
    tag: &str,
) -> ConfigRun {
    let mut run = ConfigRun {
        outcomes: Vec::with_capacity(case.ops.len() + 1),
        rules: BTreeMap::new(),
    };

    let mut db = Database::new();
    db.set_reference_paths(config.reference);
    let mut scratch: Option<PathBuf> = None;
    if config.storage == StorageBackend::Paged {
        let dir = work_dir.join(format!("{tag}_{}", config.slug()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create scratch dir {}: {e}", dir.display()));
        db.set_storage_dir(&dir);
        db.set_storage(StorageBackend::Paged)
            .unwrap_or_else(|e| panic!("cannot attach paged storage in {}: {e:?}", dir.display()));
        scratch = Some(dir);
    }

    let engine = MineRuleEngine::new().with_cache(config.cache);

    // Setup script: outcome slot 0.
    let mut setup = String::from("ok");
    for stmt in case.setup_statements() {
        if let Err(e) = db.execute(&stmt) {
            setup = format!("err: {e:?}");
            break;
        }
    }
    run.outcomes.push(setup);

    for (i, op) in case.ops.iter().enumerate() {
        let outcome = match op {
            Op::Dml(s) => match db.execute(s) {
                Ok(out) => format!("ok rows={}", out.rows_affected),
                Err(e) => format!("err: {e:?}"),
            },
            Op::Query(s) => {
                let explained = (!config.reference)
                    .then(|| explained_pushdowns(&mut db, s))
                    .flatten();
                let pushed_before = db.stats().planner_pushed_filters;
                match db.query(s) {
                    Ok(rs) => {
                        let mut rendered = render_rows(&rs);
                        if skew == Skew::ProductionDropsLastRow
                            && !config.reference
                            && !rendered.is_empty()
                        {
                            // Injected fault: lose the (sorted) last row.
                            rendered = match rendered.rsplit_once('\n') {
                                Some((head, _)) => head.to_string(),
                                None => String::new(),
                            };
                        }
                        let mut outcome = format!("rows:\n{rendered}");
                        let pushed = db.stats().planner_pushed_filters - pushed_before;
                        if let Some(printed) = explained.filter(|&n| n != pushed) {
                            let line =
                                format!("\nexplain: {printed} pushdown lines, {pushed} pushed");
                            outcome.push_str(&line);
                        }
                        outcome
                    }
                    Err(e) => format!("err: {e:?}"),
                }
            }
            Op::Mine(s) => match engine.execute(&mut db, s) {
                Ok(outcome) => {
                    let mut rules = outcome.rules;
                    if skew == Skew::ProductionDropsLastRule && !config.reference {
                        rules.pop();
                    }
                    let sig = signature(&rules);
                    run.rules.insert(i, rules);
                    format!("rules:\n{}", sig.join("\n"))
                }
                Err(e) => format!("err: {e:?}"),
            },
        };
        run.outcomes.push(outcome);
    }

    if let Some(dir) = scratch {
        let _ = std::fs::remove_dir_all(&dir);
    }
    run
}

// ---------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------

fn first_outcome_divergence(
    case: &FuzzCase,
    base_label: &str,
    base: &ConfigRun,
    label: &str,
    run: &ConfigRun,
) -> Option<Divergence> {
    for (slot, (expected, actual)) in base.outcomes.iter().zip(run.outcomes.iter()).enumerate() {
        if expected != actual {
            let (op, statement) = if slot == 0 {
                (None, "<setup script>".to_string())
            } else {
                (Some(slot - 1), case.ops[slot - 1].text().to_string())
            };
            return Some(Divergence {
                kind: DivergenceKind::Matrix,
                config: label.to_string(),
                against: base_label.to_string(),
                op,
                statement,
                expected: expected.clone(),
                actual: actual.clone(),
            });
        }
    }
    None
}

fn norm_rules(rules: &[DecodedRule]) -> Vec<String> {
    let mut v: Vec<String> = rules
        .iter()
        .map(|r| {
            format!(
                "{:?}=>{:?} s={:.6} c={:.6}",
                r.body, r.head, r.support, r.confidence
            )
        })
        .collect();
    v.sort();
    v
}

/// Replay the case's state-changing statements on a fresh memory
/// database and cross-check every mine op the baseline solved against
/// the brute-force oracle.
// A `Divergence` is big, but Err is the once-per-fuzz-run cold path —
// boxing it would noise up every caller for nothing.
#[allow(clippy::result_large_err)]
fn reference_pass(
    case: &FuzzCase,
    base_label: &str,
    base: &ConfigRun,
) -> Result<usize, Divergence> {
    let mut db = Database::new();
    for stmt in case.setup_statements() {
        if db.execute(&stmt).is_err() {
            // Setup fails identically everywhere (already cross-checked);
            // nothing for the oracle to validate.
            return Ok(0);
        }
    }
    let mut checked = 0;
    for (i, op) in case.ops.iter().enumerate() {
        match op {
            Op::Dml(s) => {
                let _ = db.execute(s);
            }
            Op::Query(_) => {}
            Op::Mine(s) => {
                let Some(rules) = base.rules.get(&i) else {
                    continue; // errored in the pipeline too — compared across configs already
                };
                let expected = parse_mine_rule(s)
                    .and_then(|stmt| reference_mine(&mut db, &stmt))
                    .map_err(|e| Divergence {
                        kind: DivergenceKind::Reference,
                        config: base_label.to_string(),
                        against: "reference".to_string(),
                        op: Some(i),
                        statement: s.clone(),
                        expected: format!("oracle error: {e:?}"),
                        actual: format!("pipeline mined {} rules", rules.len()),
                    })?;
                let want = norm_rules(&expected);
                let got = norm_rules(rules);
                if want != got {
                    return Err(Divergence {
                        kind: DivergenceKind::Reference,
                        config: base_label.to_string(),
                        against: "reference".to_string(),
                        op: Some(i),
                        statement: s.clone(),
                        expected: want.join("\n"),
                        actual: got.join("\n"),
                    });
                }
                checked += 1;
            }
        }
    }
    Ok(checked)
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Run one case across the whole matrix. `tag` namespaces the paged
/// scratch directories (use the case number).
#[allow(clippy::result_large_err)]
pub fn run_case(
    case: &FuzzCase,
    opts: &MatrixOptions,
    tag: &str,
) -> Result<CaseReport, Divergence> {
    let configs = opts.matrix.configs();
    let base_label = configs[0].label();
    let base = run_config(case, &configs[0], opts.skew, &opts.work_dir, tag);

    for config in &configs[1..] {
        let label = config.label();
        let run = run_config(case, config, opts.skew, &opts.work_dir, tag);
        if let Some(d) = first_outcome_divergence(case, &base_label, &base, &label, &run) {
            return Err(d);
        }
    }

    let mut report = CaseReport {
        configs: configs.len(),
        reference_mines: 0,
    };
    if opts.check_reference && case.row_count() <= opts.reference_max_rows {
        report.reference_mines = reference_pass(case, &base_label, &base)?;
    }
    Ok(report)
}

/// Run just two configurations and report their first disagreement —
/// the cheap pair oracle the shrinker uses once a full-matrix run has
/// identified *which* configuration diverges.
pub fn diverges_between(
    case: &FuzzCase,
    a: &Config,
    b: &Config,
    skew: Skew,
    work_dir: &Path,
    tag: &str,
) -> Option<Divergence> {
    let ra = run_config(case, a, skew, work_dir, tag);
    let rb = run_config(case, b, skew, work_dir, tag);
    first_outcome_divergence(case, &a.label(), &ra, &b.label(), &rb)
}

/// Run only the baseline configuration and cross-check it against the
/// reference oracle — the pair oracle for shrinking reference-kind
/// divergences. Ungated by case size: the caller only shrinks, so the
/// case never grows past what a full run already accepted.
pub fn diverges_from_reference(case: &FuzzCase, work_dir: &Path, tag: &str) -> Option<Divergence> {
    let config = Config::baseline();
    let run = run_config(case, &config, Skew::None, work_dir, tag);
    reference_pass(case, &config.label(), &run).err()
}

/// Find the matrix [`Config`] whose label matches a divergence report
/// (used to rebuild the pair oracle from a stored repro header).
pub fn config_by_label(matrix: Matrix, label: &str) -> Option<Config> {
    matrix.configs().into_iter().find(|c| c.label() == label)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_matrix_is_the_cross_product() {
        let configs = Matrix::Full.configs();
        // Drift guard: README, docs/FUZZING.md and the CI workflows all
        // quote this number.
        assert_eq!(configs.len(), 8, "2 x 2 x 2");
        assert_eq!(configs[0], Config::baseline());
        let labels: std::collections::BTreeSet<String> =
            configs.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), configs.len(), "labels must be unique");
    }

    #[test]
    fn quick_matrix_covers_every_axis_value() {
        let configs = Matrix::Quick.configs();
        assert_eq!(configs[0], Config::baseline());
        assert_eq!(configs.len(), 6);
        let joined: Vec<String> = configs.iter().map(|c| c.label()).collect();
        for needle in ["reference=on", "reference=off", "cache=on", "storage=paged"] {
            assert!(
                joined.iter().any(|l| l.contains(needle)),
                "quick matrix misses {needle}"
            );
        }
    }

    #[test]
    fn labels_round_trip_to_configs() {
        for config in Matrix::Full.configs() {
            assert_eq!(config_by_label(Matrix::Full, &config.label()), Some(config));
        }
    }
}
