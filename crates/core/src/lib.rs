//! # minerule — a tightly-coupled data mining kernel
//!
//! A from-scratch reproduction of *A Tightly-Coupled Architecture for Data
//! Mining* (R. Meo, G. Psaila, S. Ceri — ICDE 1998). The crate implements
//! the full kernel of the paper's Figure 3a on top of the `relational`
//! SQL engine:
//!
//! * **translator** ([`translator`]) — parses MINE RULE, runs the four
//!   semantic checks against the data dictionary, classifies the
//!   statement with the `H W M G C K F R` directives, and generates the
//!   preprocessing/postprocessing SQL programs (`Q0`..`Q11`, Appendix A);
//! * **preprocessor** ([`preprocess`]) — executes those programs on the
//!   SQL server, producing the encoded tables (`ValidGroups`, `Bset`,
//!   `Hset`, `Clusters`, `ClusterCouples`, `CodedSource`, `InputRules`);
//! * **core operator** ([`core_op`]) — the only non-SQL computation: a
//!   pool of interchangeable large-itemset algorithms ([`algo`]) for
//!   simple rules, and the m×n rule lattice ([`lattice`]) for general
//!   rules (clusters, mining conditions, distinct body/head schemas);
//! * **postprocessor** ([`postprocess`]) — stores encoded rules in the
//!   normalised three-table form and decodes them with SQL joins into
//!   `<out>`, `<out>_Bodies`, `<out>_Heads`.
//!
//! The decoupled architecture the paper argues against is implemented in
//! [`decoupled`] as a measurable baseline, and the paper's §2 worked
//! example lives in [`paper_example`]. Every phase reports counters and
//! span timings through the [`telemetry`] registry (see
//! `docs/OBSERVABILITY.md`), exported as JSON via
//! [`MineRuleEngine::metrics_snapshot`](pipeline::MineRuleEngine::metrics_snapshot).
//!
//! ## Quickstart
//!
//! ```
//! use minerule::{MineRuleEngine, paper_example};
//!
//! // Figure 1's Purchase table, then the §2 statement end to end.
//! let mut db = paper_example::purchase_db();
//! let outcome = MineRuleEngine::new()
//!     .execute(&mut db, paper_example::FILTERED_ORDERED_SETS)
//!     .unwrap();
//! for rule in &outcome.rules {
//!     println!("{}", rule.display());
//! }
//! // Rules are also regular tables inside the database:
//! let rs = db.query("SELECT COUNT(*) FROM FilteredOrderedSets").unwrap();
//! assert_eq!(rs.scalar().unwrap().to_string(), "3");
//! ```

pub mod algo;
pub mod artifacts;
pub mod ast;
pub mod core_op;
pub mod decoupled;
pub mod digest;
pub mod directives;
pub mod encoded;
pub mod error;
pub mod lattice;
pub mod paper_example;
pub mod parser;
pub mod pipeline;
pub mod postprocess;
pub mod preprocess;
pub mod reference;
mod runs;
pub mod telemetry;
pub mod translator;

pub use artifacts::{ArtifactStore, ServeKind};
pub use ast::{CardMax, CardSpec, ElementSpec, MineRuleStatement, SourceTable};
pub use directives::{Directives, StatementClass};
pub use error::{MineError, Result, SemanticViolation};
pub use parser::{is_mine_rule, parse_mine_rule};
pub use pipeline::{MineRuleEngine, MiningOutcome, PhaseTimings};
pub use postprocess::DecodedRule;
pub use telemetry::{MetricsSnapshot, Telemetry};
pub use translator::{translate, translate_with_prefix, Translation};
