//! The interactive session: one database, one mining engine, a command
//! dispatcher. Split from `main.rs` so the whole surface is unit-testable
//! without a terminal.

use std::fmt::Write as _;
use std::time::Instant;

use datagen::{generate_quest, generate_retail, load_quest, QuestConfig, RetailConfig};
use minerule::paper_example::load_purchase_table;
use minerule::{is_mine_rule, MineError, MineRuleEngine};
use relational::{Database, StorageBackend};

/// Why a `\set` was refused.
enum Refused {
    /// The value is outside the knob's domain: answered with the one typed
    /// knob error, built from the table entry.
    Domain,
    /// The value was understood but could not be applied.
    Failed(String),
}

/// One `\set` knob: the single source of truth for parsing, the no-arg
/// listing, `\set <knob>`, the `\help` text and the unknown-setting hint,
/// so the surfaces can never drift apart (asserted in the session tests,
/// which also hold the README's knob table to this one).
pub struct Knob {
    /// The `\set` name.
    pub name: &'static str,
    /// Value domain, shown in help and in the rejection of a bad value.
    pub domain: &'static str,
    /// One-line description for `\help`.
    pub blurb: &'static str,
    /// The current value, rendered.
    get: fn(&Session) -> String,
    /// Parse and apply a value (plus the word after it, if any).
    set: fn(&mut Session, &str, Option<&str>) -> Result<(), Refused>,
}

/// Every `\set` knob the shell understands. None of them selects an
/// execution strategy — those are chosen from what the code observes.
pub const KNOBS: &[Knob] = &[
    Knob {
        name: "telemetry",
        domain: "on|off",
        blurb: "toggle metric recording (rules identical either way)",
        get: |s| on_off(s.engine.telemetry_enabled()).to_string(),
        set: |s, value, _| {
            s.engine.set_telemetry_enabled(parse_on_off(value)?);
            Ok(())
        },
    },
    Knob {
        name: "cache",
        domain: "on|off",
        blurb: "session artifact store for warm reruns (rules identical either way)",
        get: |s| on_off(s.engine.cache_enabled()).to_string(),
        set: |s, value, _| {
            s.engine.set_cache_enabled(parse_on_off(value)?);
            Ok(())
        },
    },
    Knob {
        name: "storage",
        domain: "memory|paged [dir]",
        blurb: "storage backend (paged adds crash-safe durability; same results)",
        get: |s| s.db.storage().to_string(),
        set: |s, value, dir| {
            let backend = StorageBackend::from_name(value).ok_or(Refused::Domain)?;
            if let (StorageBackend::Paged, Some(dir)) = (backend, dir) {
                s.db.set_storage_dir(dir);
            }
            s.db.set_storage(backend).map_err(|e| {
                Refused::Failed(format!(
                    "error: {e} (usage: \\set storage memory | paged <dir>)"
                ))
            })
        },
    },
];

fn on_off(state: bool) -> &'static str {
    if state {
        "on"
    } else {
        "off"
    }
}

fn parse_on_off(value: &str) -> Result<bool, Refused> {
    match value.to_ascii_lowercase().as_str() {
        "on" => Ok(true),
        "off" => Ok(false),
        _ => Err(Refused::Domain),
    }
}

/// What a processed input line produced.
#[derive(Debug, PartialEq)]
pub enum Outcome {
    /// Text to print.
    Output(String),
    /// The user asked to leave.
    Quit,
}

/// An interactive session over one in-memory database.
pub struct Session {
    db: Database,
    engine: MineRuleEngine,
    /// Print wall-clock timings after each statement.
    timing: bool,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// A fresh session with an empty database.
    pub fn new() -> Session {
        Session {
            db: Database::new(),
            engine: MineRuleEngine::new(),
            timing: false,
        }
    }

    /// Process one input line (a `\`-command, a SQL statement or a MINE
    /// RULE statement) and return what to print.
    pub fn process(&mut self, line: &str) -> Outcome {
        let line = line.trim();
        if line.is_empty() {
            return Outcome::Output(String::new());
        }
        if let Some(cmd) = line.strip_prefix('\\') {
            return self.command(cmd);
        }
        let started = Instant::now();
        let result = if is_mine_rule(line) {
            self.run_mine_rule(line)
        } else {
            self.run_sql(line)
        };
        let mut out = match result {
            Ok(text) => text,
            Err(message) => format!("error: {message}"),
        };
        if self.timing {
            let _ = write!(out, "\n({:.2} ms)", started.elapsed().as_secs_f64() * 1e3);
        }
        Outcome::Output(out)
    }

    fn run_sql(&mut self, sql: &str) -> Result<String, String> {
        let outcome = self.db.execute(sql).map_err(|e| e.to_string())?;
        Ok(match outcome.result {
            Some(rs) => rs.to_string(),
            None => format!("ok ({} rows affected)", outcome.rows_affected),
        })
    }

    fn run_mine_rule(&mut self, text: &str) -> Result<String, String> {
        let outcome = self
            .engine
            .execute(&mut self.db, text)
            .map_err(|e| e.to_string())?;
        let mut out = format!(
            "mined {} rules ({} class, directives {})\n",
            outcome.rules.len(),
            outcome.translation.class,
            outcome.translation.directives
        );
        for rule in outcome.rules.iter().take(25) {
            let _ = writeln!(out, "  {}", rule.display());
        }
        if outcome.rules.len() > 25 {
            let _ = writeln!(out, "  ... ({} more)", outcome.rules.len() - 25);
        }
        let _ = write!(
            out,
            "output tables: {out_t}, {out_t}_Bodies, {out_t}_Heads",
            out_t = outcome.translation.stmt.output_table
        );
        Ok(out)
    }

    /// Pretty-print a MINE RULE output-table triple, strongest rules first.
    fn show_rules(&mut self, table: &str) -> Outcome {
        let sql = format!(
            "SELECT r.BodyId, r.HeadId, b.SUPPORT, b.CONFIDENCE \
             FROM {table} r, {table} b \
             WHERE r.BodyId = b.BodyId AND r.HeadId = b.HeadId LIMIT 1"
        );
        // Probe that the table has the rule shape at all.
        if self.db.query(&sql).is_err() {
            return Outcome::Output(format!("error: '{table}' is not a MINE RULE output table"));
        }
        let q = format!(
            "SELECT r.BodyId, r.HeadId, r.SUPPORT, r.CONFIDENCE FROM {table} r \
             ORDER BY r.CONFIDENCE DESC, r.SUPPORT DESC LIMIT 20"
        );
        let rules = match self.db.query(&q) {
            Ok(rs) => rs,
            Err(e) => return Outcome::Output(format!("error: {e}")),
        };
        let mut out = String::new();
        for row in rules.rows() {
            let body_id = &row[0];
            let head_id = &row[1];
            let mut items = |side: &str, id: &relational::Value| -> String {
                let q = format!(
                    "SELECT * FROM {table}_{side} WHERE {col} = {id}",
                    col = if side == "Bodies" { "BodyId" } else { "HeadId" }
                );
                match self.db.query(&q) {
                    Ok(rs) => {
                        let mut items: Vec<String> = rs
                            .rows()
                            .iter()
                            .map(|r| {
                                r.iter()
                                    .skip(1)
                                    .map(|v| v.to_string())
                                    .collect::<Vec<_>>()
                                    .join("|")
                            })
                            .collect();
                        items.sort();
                        items.join(", ")
                    }
                    Err(_) => format!("#{id}"),
                }
            };
            let _ = writeln!(
                out,
                "  {{{}}} => {{{}}}  (s={}, c={})",
                items("Bodies", body_id),
                items("Heads", head_id),
                row[2],
                row[3]
            );
        }
        if out.is_empty() {
            out = "no rules".to_string();
        }
        Outcome::Output(out.trim_end().to_string())
    }

    fn command(&mut self, cmd: &str) -> Outcome {
        let mut words = cmd.split_whitespace();
        match words.next().unwrap_or("") {
            "q" | "quit" | "exit" => Outcome::Quit,
            "help" | "h" | "?" => Outcome::Output(help_text()),
            "tables" | "dt" => {
                let names = self.db.catalog().table_names();
                if names.is_empty() {
                    Outcome::Output("no tables".into())
                } else {
                    Outcome::Output(names.join("\n"))
                }
            }
            "schema" | "d" => match words.next() {
                None => Outcome::Output("usage: \\schema <table>".into()),
                Some(name) => match self.db.catalog().table_schema(name) {
                    Err(e) => Outcome::Output(format!("error: {e}")),
                    Ok(schema) => {
                        let mut out = String::new();
                        for c in schema.columns() {
                            let _ = writeln!(out, "{} {}", c.name, c.dtype);
                        }
                        Outcome::Output(out.trim_end().to_string())
                    }
                },
            },
            "timing" => {
                self.timing = !self.timing;
                Outcome::Output(format!(
                    "timing is {}",
                    if self.timing { "on" } else { "off" }
                ))
            }
            "algorithm" => match words.next() {
                None => Outcome::Output(format!(
                    "current algorithm: {} (choose: {})",
                    self.engine.core.algorithm,
                    minerule::algo::POOL_NAMES.join(", ")
                )),
                Some(name) => {
                    if minerule::algo::by_name(name).is_some() {
                        self.engine.core.algorithm = name.to_string();
                        Outcome::Output(format!("algorithm set to {name}"))
                    } else {
                        Outcome::Output(format!(
                            "unknown algorithm '{name}'; the pool contains: {}",
                            minerule::algo::POOL_NAMES.join(", ")
                        ))
                    }
                }
            },
            "set" => {
                let Some(name) = words.next() else {
                    let mut out = format!("settings:\n  algorithm: {}", self.engine.core.algorithm);
                    for knob in KNOBS {
                        let _ = write!(out, "\n  {}: {}", knob.name, (knob.get)(self));
                    }
                    return Outcome::Output(out);
                };
                let Some(knob) = KNOBS.iter().find(|k| k.name == name) else {
                    let names: Vec<&str> = KNOBS.iter().map(|k| k.name).collect();
                    return Outcome::Output(format!(
                        "unknown setting '{name}' — valid settings: {}",
                        names.join(", ")
                    ));
                };
                Outcome::Output(match words.next() {
                    None => format!("{}: {} ({})", knob.name, (knob.get)(self), knob.blurb),
                    Some(value) => match (knob.set)(self, value, words.next()) {
                        Ok(()) => format!("{} set to {}", knob.name, (knob.get)(self)),
                        // Same user-facing shape as the unknown-algorithm
                        // rejection: the offending value and the domain.
                        Err(Refused::Domain) => MineError::InvalidKnob {
                            knob: knob.name,
                            value: value.to_string(),
                            domain: knob.domain,
                        }
                        .to_string(),
                        Err(Refused::Failed(message)) => message,
                    },
                })
            }
            "stats" => match words.next() {
                None => {
                    if !self.engine.telemetry_enabled() {
                        Outcome::Output("telemetry is off — \\set telemetry on to record".into())
                    } else {
                        let snapshot = self.engine.metrics_snapshot();
                        if snapshot.is_empty() {
                            Outcome::Output("no metrics recorded yet".into())
                        } else {
                            Outcome::Output(snapshot.render_text().trim_end().to_string())
                        }
                    }
                }
                Some("reset") => {
                    self.engine.reset_metrics();
                    Outcome::Output("metrics reset".into())
                }
                Some("json") => Outcome::Output(self.engine.metrics_snapshot().to_pretty_json()),
                Some(other) => {
                    Outcome::Output(format!("usage: \\stats [reset | json] (not '{other}')"))
                }
            },
            "save" => match words.next() {
                None => Outcome::Output("usage: \\save <directory>".into()),
                Some(dir) => match relational::persist::save(&self.db, std::path::Path::new(dir)) {
                    Ok(()) => Outcome::Output(format!("database saved to {dir}")),
                    Err(e) => Outcome::Output(format!("error: {e}")),
                },
            },
            "load" => match words.next() {
                None => Outcome::Output("usage: \\load <directory>".into()),
                Some(dir) => match relational::persist::load(std::path::Path::new(dir)) {
                    Ok(db) => {
                        self.db = db;
                        Outcome::Output(format!(
                            "database loaded from {dir} ({} tables)",
                            self.db.catalog().table_names().len()
                        ))
                    }
                    Err(e) => Outcome::Output(format!("error: {e}")),
                },
            },
            "rules" => match words.next() {
                None => Outcome::Output("usage: \\rules <output table>".into()),
                Some(table) => self.show_rules(table),
            },
            "demo" => match words.next() {
                Some("paper") => match load_purchase_table(&mut self.db) {
                    Ok(()) => Outcome::Output(
                        "loaded the paper's Purchase table (Figure 1); try:\n  \
                         MINE RULE F AS SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, \
                         SUPPORT, CONFIDENCE WHERE BODY.price >= 100 AND HEAD.price < 100 \
                         FROM Purchase WHERE date BETWEEN DATE '1995-01-01' AND DATE '1995-12-31' \
                         GROUP BY customer CLUSTER BY date HAVING BODY.date < HEAD.date \
                         EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3"
                            .into(),
                    ),
                    Err(e) => Outcome::Output(format!("error: {e}")),
                },
                Some("quest") => {
                    let n = words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .unwrap_or(1000usize);
                    let data = generate_quest(&QuestConfig {
                        transactions: n,
                        ..QuestConfig::default()
                    });
                    match load_quest(&data, &mut self.db, "Baskets") {
                        Ok(()) => Outcome::Output(format!(
                            "loaded {} baskets into table Baskets (tr, item)",
                            n
                        )),
                        Err(e) => Outcome::Output(format!("error: {e}")),
                    }
                }
                Some("retail") => {
                    let n = words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .unwrap_or(200usize);
                    let data = generate_retail(&RetailConfig {
                        customers: n,
                        ..RetailConfig::default()
                    });
                    match data.load(&mut self.db, "Purchase") {
                        Ok(()) => Outcome::Output(format!(
                            "loaded {} purchase rows for {n} customers into table Purchase",
                            data.rows.len()
                        )),
                        Err(e) => Outcome::Output(format!("error: {e}")),
                    }
                }
                _ => Outcome::Output("usage: \\demo paper | quest [n] | retail [n]".into()),
            },
            other => Outcome::Output(format!("unknown command '\\{other}' — try \\help")),
        }
    }
}

/// The `\help` text; the `\set` lines are generated from [`KNOBS`] so
/// help can never miss a knob.
fn help_text() -> String {
    let mut set_lines = String::new();
    for knob in KNOBS {
        let usage = format!("\\set {} {}", knob.name, knob.domain);
        let _ = writeln!(set_lines, "  {usage:<21} {}", knob.blurb);
    }
    let set_lines = set_lines.trim_end();
    format!(
        "\
tcdm — tightly-coupled data mining shell

Type a SQL statement (CREATE TABLE / INSERT / SELECT / ...) or a
MINE RULE statement; both run against the same in-memory database.

Commands:
  \\help                 this text
  \\tables               list tables
  \\schema <table>       show a table's columns
  \\demo paper           load the paper's Figure 1 Purchase table
  \\demo quest [n]       load n synthetic baskets (default 1000)
  \\demo retail [n]      load a synthetic retail table (default 200 customers)
  \\algorithm [name]     show or set the simple-class mining algorithm
{set_lines}
  \\stats                show recorded pipeline metrics
  \\stats reset          clear recorded metrics
  \\stats json           dump the metrics snapshot as JSON
  \\rules <table>        pretty-print a MINE RULE output table
  \\save <dir>           persist the database to a directory
  \\load <dir>           load a previously saved database
  \\timing               toggle per-statement timing
  \\quit                 leave

EXPLAIN <statement> shows the engine's plan for any SQL query."
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out(session: &mut Session, line: &str) -> String {
        match session.process(line) {
            Outcome::Output(s) => s,
            Outcome::Quit => panic!("unexpected quit"),
        }
    }

    #[test]
    fn sql_roundtrip() {
        let mut s = Session::new();
        assert!(out(&mut s, "CREATE TABLE t (a INT)").contains("ok"));
        assert!(out(&mut s, "INSERT INTO t VALUES (1), (2)").contains("2 rows"));
        let table = out(&mut s, "SELECT COUNT(*) FROM t");
        assert!(table.contains('2'), "{table}");
    }

    #[test]
    fn mine_rule_dispatch() {
        let mut s = Session::new();
        out(&mut s, "\\demo paper");
        let result = out(
            &mut s,
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD, SUPPORT, CONFIDENCE \
             FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1",
        );
        assert!(result.contains("mined"), "{result}");
        assert!(result.contains("R_Bodies"));
        // Output table is queryable afterwards.
        assert!(out(&mut s, "SELECT COUNT(*) FROM R").contains("rows"));
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut s = Session::new();
        assert!(out(&mut s, "SELECT * FROM missing").starts_with("error:"));
        assert!(out(&mut s, "MINE RULE broken").starts_with("error:"));
        // Session still usable.
        assert!(out(&mut s, "CREATE TABLE t (a INT)").contains("ok"));
    }

    #[test]
    fn commands() {
        let mut s = Session::new();
        assert_eq!(s.process("\\quit"), Outcome::Quit);
        assert!(out(&mut s, "\\help").contains("MINE RULE"));
        assert!(out(&mut s, "\\tables").contains("no tables"));
        out(&mut s, "\\demo quest 50");
        assert!(out(&mut s, "\\tables").contains("Baskets"));
        assert!(out(&mut s, "\\schema Baskets").contains("tr INT"));
        assert!(out(&mut s, "\\timing").contains("on"));
        assert!(out(&mut s, "\\algorithm partition").contains("partition"));
        let unknown = out(&mut s, "\\algorithm bogus");
        assert!(unknown.contains("unknown"), "{unknown}");
        assert!(
            unknown.contains("apriori") && unknown.contains("fpgrowth"),
            "lists the pool: {unknown}"
        );
        let retired = out(&mut s, "\\algorithm partition-par");
        assert!(
            retired.contains("unknown algorithm 'partition-par'"),
            "{retired}"
        );
    }

    #[test]
    fn strategy_selectors_are_not_settings() {
        // Execution strategies are selected from what the code observes;
        // neither the retired pins nor the tests' reference selector are
        // reachable from the shell — nor are the two retired cache knobs
        // or the retired executor thread count.
        assert_eq!(KNOBS.len(), 3);
        let mut s = Session::new();
        let help = out(&mut s, "\\help");
        for name in [
            "sqlexec",
            "exec",
            "planner",
            "indexes",
            "gidset",
            "reference",
            "preprocache",
            "minecache",
            "workers",
        ] {
            let answer = out(&mut s, &format!("\\set {name} on"));
            assert!(answer.contains("unknown setting"), "{name}: {answer}");
            assert!(!help.contains(&format!("\\set {name}")), "{name}: {help}");
        }
        let answer = out(&mut s, "\\set workers 4");
        assert!(answer.contains("unknown setting"), "{answer}");
    }

    #[test]
    fn knob_table_matches_the_readme() {
        let readme = include_str!("../../../README.md");
        let rows: Vec<&str> = readme
            .lines()
            .filter_map(|l| l.strip_prefix("| `\\set "))
            .filter_map(|l| l.split([' ', '`']).next())
            .collect();
        let names: Vec<&str> = KNOBS.iter().map(|k| k.name).collect();
        assert_eq!(rows, names, "README knob table drifted from KNOBS");
    }

    #[test]
    fn every_knob_appears_in_listing_and_help() {
        let mut s = Session::new();
        let listing = out(&mut s, "\\set");
        let help = out(&mut s, "\\help");
        let hint = out(&mut s, "\\set gizmo on");
        for knob in KNOBS {
            assert!(
                listing.contains(&format!("{}: ", knob.name)),
                "\\set listing misses '{}': {listing}",
                knob.name
            );
            assert!(
                help.contains(&format!("\\set {} {}", knob.name, knob.domain)),
                "\\help misses '{}': {help}",
                knob.name
            );
            assert!(
                hint.contains(knob.name),
                "unknown-setting hint misses '{}': {hint}",
                knob.name
            );
        }
    }

    #[test]
    fn cache_setting() {
        let mut s = Session::new();
        assert!(out(&mut s, "\\set cache").contains("cache: on"));
        assert!(out(&mut s, "\\set cache off").contains("cache set to off"));
        assert!(out(&mut s, "\\set").contains("cache: off"));
        // Bad names get the engine's typed error, stating the domain.
        let bad = out(&mut s, "\\set cache maybe");
        assert!(bad.contains("invalid value 'maybe' for cache"), "{bad}");
        assert!(bad.contains("on|off"), "{bad}");
        assert!(
            out(&mut s, "\\set cache").contains("cache: off"),
            "unchanged"
        );
        // Mining yields identical output with the store on and off; with
        // it on, an identical rerun restores the encoding and a
        // tightened-threshold rerun is served by filtering.
        out(&mut s, "\\demo paper");
        let stmt = |support: f64| {
            format!(
                "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD, SUPPORT, CONFIDENCE \
                 FROM Purchase GROUP BY customer \
                 EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: 0.1"
            )
        };
        let mut outputs = Vec::new();
        for state in ["off", "on", "on"] {
            out(&mut s, &format!("\\set cache {state}"));
            out(&mut s, &stmt(0.25));
            out(&mut s, "DROP TABLE R");
            let result = out(&mut s, &stmt(0.5));
            assert!(result.contains("mined"), "{state}: {result}");
            out(&mut s, "DROP TABLE R");
            outputs.push(result);
        }
        assert!(outputs.windows(2).all(|w| w[0] == w[1]), "same rules");
        let stats = out(&mut s, "\\stats");
        assert!(stats.contains("preprocess.cache.hit"), "{stats}");
        assert!(stats.contains("core.minecache.hit"), "{stats}");
        assert!(stats.contains("core.minecache.refine"), "{stats}");
    }

    #[test]
    fn every_knob_roundtrips_and_rejects_bad_values() {
        // Companion to `every_knob_appears_in_listing_and_help`: each
        // KNOBS entry must answer a no-arg query with its current value,
        // reject a bogus value with an error naming it, and keep its
        // previous value afterwards — so no knob can ship without the
        // full \set round-trip.
        let mut s = Session::new();
        for knob in KNOBS {
            let show = out(&mut s, &format!("\\set {}", knob.name));
            assert!(
                show.contains(&format!("{}: ", knob.name)),
                "\\set {} shows no value: {show}",
                knob.name
            );
            let bad = out(&mut s, &format!("\\set {} zzz_bogus", knob.name));
            assert!(
                bad.contains("zzz_bogus"),
                "'\\set {} zzz_bogus' does not name the bad value: {bad}",
                knob.name
            );
            assert_eq!(
                bad,
                MineError::InvalidKnob {
                    knob: knob.name,
                    value: "zzz_bogus".into(),
                    domain: knob.domain,
                }
                .to_string(),
                "'\\set {} zzz_bogus' is not the typed rejection",
                knob.name
            );
            assert_eq!(
                out(&mut s, &format!("\\set {}", knob.name)),
                show,
                "rejected value changed knob '{}'",
                knob.name
            );
        }
    }

    #[test]
    fn storage_setting() {
        let dir = std::env::temp_dir().join(format!("tcdm_cli_storage_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut s = Session::new();
        assert!(out(&mut s, "\\set storage").contains("storage: memory"));
        // Bad names get the engine's typed error, stating the domain.
        let bad = out(&mut s, "\\set storage cloud");
        assert!(bad.contains("invalid value 'cloud' for storage"), "{bad}");
        assert!(bad.contains("memory|paged"), "{bad}");
        // Paged without a directory is a usage error, and the session
        // stays on the memory backend.
        let nodir = out(&mut s, "\\set storage paged");
        assert!(nodir.contains("error"), "{nodir}");
        assert!(nodir.contains("\\set storage"), "{nodir}");
        assert!(out(&mut s, "\\set storage").contains("storage: memory"));
        // With a directory the switch works and SQL becomes durable.
        let attach = format!("\\set storage paged {}", dir.display());
        assert!(out(&mut s, &attach).contains("storage set to paged"));
        assert!(out(&mut s, "\\set").contains("storage: paged"));
        out(&mut s, "CREATE TABLE t (a INT)");
        out(&mut s, "INSERT INTO t VALUES (1), (2)");
        assert!(out(&mut s, "\\set storage memory").contains("storage set to memory"));
        drop(s);
        // A fresh session re-attaches the directory and sees the data.
        let mut s2 = Session::new();
        assert!(out(&mut s2, &attach).contains("storage set to paged"));
        assert!(out(&mut s2, "SELECT COUNT(*) FROM t").contains('2'));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_and_telemetry_commands() {
        let mut s = Session::new();
        assert!(out(&mut s, "\\set telemetry").contains("telemetry: on"));
        assert!(out(&mut s, "\\stats").contains("no metrics recorded"));
        out(&mut s, "\\demo paper");
        out(
            &mut s,
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD, SUPPORT, CONFIDENCE \
             FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1",
        );
        let stats = out(&mut s, "\\stats");
        assert!(stats.contains("translator.statements"), "{stats}");
        assert!(stats.contains("phase.core"), "{stats}");
        let json = out(&mut s, "\\stats json");
        assert!(json.contains("\"schema_version\""), "{json}");
        assert!(out(&mut s, "\\stats reset").contains("reset"));
        assert!(out(&mut s, "\\stats").contains("no metrics recorded"));
        // Off: runs record nothing and \stats says so.
        assert!(out(&mut s, "\\set telemetry off").contains("telemetry set to off"));
        out(
            &mut s,
            "MINE RULE R2 AS SELECT DISTINCT item AS BODY, item AS HEAD, SUPPORT, CONFIDENCE \
             FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1",
        );
        assert!(out(&mut s, "\\stats").contains("telemetry is off"));
        assert!(
            out(&mut s, "\\set telemetry maybe").contains("invalid value 'maybe' for telemetry")
        );
        assert!(out(&mut s, "\\set telemetry on").contains("telemetry set to on"));
        assert!(out(&mut s, "\\stats bogus").contains("usage"));
        assert!(out(&mut s, "\\help").contains("\\stats"));
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("tcdm_cli_save_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = Session::new();
        out(&mut s, "CREATE TABLE t (a INT)");
        out(&mut s, "INSERT INTO t VALUES (1), (2)");
        assert!(out(&mut s, &format!("\\save {}", dir.display())).contains("saved"));
        let mut s2 = Session::new();
        assert!(out(&mut s2, &format!("\\load {}", dir.display())).contains("loaded"));
        assert!(out(&mut s2, "SELECT COUNT(*) FROM t").contains('2'));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rules_viewer() {
        let mut s = Session::new();
        out(&mut s, "\\demo paper");
        out(
            &mut s,
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD, SUPPORT, CONFIDENCE \
             FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1",
        );
        let view = out(&mut s, "\\rules R");
        assert!(view.contains("=>"), "{view}");
        assert!(out(&mut s, "\\rules Purchase").contains("not a MINE RULE output table"));
    }

    #[test]
    fn explain_through_shell() {
        let mut s = Session::new();
        out(&mut s, "CREATE TABLE t (a INT)");
        let p = out(&mut s, "EXPLAIN SELECT a FROM t WHERE a > 1");
        assert!(p.contains("scan t"), "{p}");
    }

    #[test]
    fn demo_paper_supports_full_statement() {
        let mut s = Session::new();
        out(&mut s, "\\demo paper");
        let result = out(&mut s, minerule::paper_example::FILTERED_ORDERED_SETS);
        assert!(result.contains("mined 3 rules"), "{result}");
    }
}
