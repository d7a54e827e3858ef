//! Structured results for the experiments harness: every experiment row
//! lands in a [`Report`], which exports the schema-versioned
//! `BENCH_<name>.json` artifact and the plain-text golden summary CI
//! uses for rule-count regression gating (see `docs/OBSERVABILITY.md`).

use std::time::Duration;

use minerule::telemetry::Json;

/// Version of the `BENCH_<name>.json` layout. Bump on any field change.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// One measured experiment row.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Experiment identifier (`"E1"`, `"F2"`, ...).
    pub experiment: &'static str,
    /// Case label within the experiment (`"baskets=500"`).
    pub case: String,
    /// Deterministic output size (rule or itemset count), when the case
    /// has one. Only these feed the golden regression check — timings
    /// never gate.
    pub rules: Option<u64>,
    /// The general core's joined candidates (`core.lattice.candidates`)
    /// on a lattice row: gated with the rule count, so a change that
    /// enlarges the lattice's candidate space drifts.
    pub candidates: Option<u64>,
    /// Measured wall-clock in milliseconds.
    pub ms: f64,
}

/// Collected results of one harness run.
#[derive(Debug, Clone)]
pub struct Report {
    name: String,
    quick: bool,
    entries: Vec<Entry>,
}

impl Report {
    /// An empty report for a run named `name` (becomes
    /// `BENCH_<name>.json`).
    pub fn new(name: &str, quick: bool) -> Report {
        Report {
            name: name.to_string(),
            quick,
            entries: Vec::new(),
        }
    }

    /// Record one case. `rules` of `None` marks a timing-only row that
    /// the golden check ignores.
    pub fn case(
        &mut self,
        experiment: &'static str,
        case: impl Into<String>,
        rules: Option<u64>,
        time: Duration,
    ) {
        self.entries.push(Entry {
            experiment,
            case: case.into(),
            rules,
            candidates: None,
            ms: time.as_secs_f64() * 1e3,
        });
    }

    /// Record one case of the general core: its rule count and its
    /// lattice's joined candidates both gate.
    pub fn lattice_case(
        &mut self,
        experiment: &'static str,
        case: impl Into<String>,
        rules: u64,
        candidates: u64,
        time: Duration,
    ) {
        self.case(experiment, case, Some(rules), time);
        if let Some(entry) = self.entries.last_mut() {
            entry.candidates = Some(candidates);
        }
    }

    /// The recorded rows, in insertion order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// The run's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The `BENCH_<name>.json` artifact: schema-versioned, one object
    /// per entry, written with the kernel's dependency-free JSON writer.
    pub fn to_json(&self) -> String {
        let mut root = Json::object();
        root.push("schema_version", Json::UInt(BENCH_SCHEMA_VERSION as u64));
        root.push("name", Json::str(&self.name));
        root.push("quick", Json::Bool(self.quick));
        let entries = self
            .entries
            .iter()
            .map(|e| {
                let mut row = Json::object();
                row.push("experiment", Json::str(e.experiment));
                row.push("case", Json::str(&e.case));
                row.push(
                    "rules",
                    match e.rules {
                        Some(n) => Json::UInt(n),
                        None => Json::Null,
                    },
                );
                row.push("ms", Json::Float(e.ms));
                row
            })
            .collect();
        root.push("entries", Json::Array(entries));
        root.to_pretty_string()
    }

    /// The golden summary: one `experiment/case rules=N` line per
    /// deterministic row, `candidates=M` appended on a lattice row.
    /// Timings are deliberately absent — only output sizes and work
    /// counts are stable enough to gate CI on.
    pub fn golden_summary(&self) -> String {
        let mut out = String::from(
            "# tcdm-bench golden rule counts — regenerate with:\n\
             #   cargo run --release -p tcdm-bench --bin experiments -- --quick --write-golden <this file>\n",
        );
        for e in &self.entries {
            if let Some(rules) = e.rules {
                out.push_str(&format!("{}/{} rules={rules}", e.experiment, e.case));
                if let Some(candidates) = e.candidates {
                    out.push_str(&format!(" candidates={candidates}"));
                }
                out.push('\n');
            }
        }
        out
    }

    /// Compare this run's deterministic rows against a checked-in golden
    /// summary. Returns every drifted, missing or new row; an empty Ok
    /// means the gate passes.
    pub fn check_golden(&self, golden: &str) -> Result<(), Vec<String>> {
        let mut expected: Vec<(String, (u64, Option<u64>))> = Vec::new();
        for line in golden.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, counts)) = line.rsplit_once(" rules=") else {
                return Err(vec![format!("golden line not parseable: '{line}'")]);
            };
            let (rules, candidates) = match counts.split_once(" candidates=") {
                Some((rules, candidates)) => (rules, Some(candidates)),
                None => (counts, None),
            };
            let candidates = candidates.map(str::parse::<u64>).transpose();
            match (rules.parse::<u64>(), candidates) {
                (Ok(n), Ok(c)) => expected.push((key.to_string(), (n, c))),
                _ => return Err(vec![format!("golden count not a number: '{line}'")]),
            }
        }
        let mut problems = Vec::new();
        let mut seen = vec![false; expected.len()];
        for e in &self.entries {
            let Some(rules) = e.rules else { continue };
            let key = format!("{}/{}", e.experiment, e.case);
            match expected.iter().position(|(k, _)| *k == key) {
                None => problems.push(format!("new row not in golden: {key} rules={rules}")),
                Some(i) => {
                    seen[i] = true;
                    let (want, want_candidates) = expected[i].1;
                    if want != rules {
                        problems.push(format!(
                            "rule-count drift: {key} expected {want}, measured {rules}"
                        ));
                    }
                    if want_candidates != e.candidates {
                        problems.push(format!(
                            "candidate-count drift: {key} expected {want_candidates:?}, \
                             measured {:?}",
                            e.candidates
                        ));
                    }
                }
            }
        }
        for (i, (key, (want, _))) in expected.iter().enumerate() {
            if !seen[i] {
                problems.push(format!("golden row missing from run: {key} rules={want}"));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Report {
        let mut r = Report::new("test", true);
        r.case("E1", "baskets=100", Some(42), Duration::from_millis(3));
        r.case("E1", "baskets=200", Some(99), Duration::from_millis(7));
        r.case("E7", "timing-only", None, Duration::from_millis(1));
        r.lattice_case("E5", "min-parent", 7, 120, Duration::from_millis(2));
        r
    }

    #[test]
    fn json_is_schema_versioned() {
        let json = report().to_json();
        assert!(json.contains("\"schema_version\": 1"), "{json}");
        assert!(json.contains("\"name\": \"test\""));
        assert!(json.contains("\"quick\": true"));
        assert!(json.contains("\"rules\": 42"));
        assert!(json.contains("\"rules\": null"), "timing-only row kept");
    }

    #[test]
    fn golden_roundtrip_passes() {
        let r = report();
        let golden = r.golden_summary();
        assert!(golden.contains("E1/baskets=100 rules=42\n"));
        assert!(golden.contains("E5/min-parent rules=7 candidates=120\n"));
        assert!(!golden.contains("timing-only"), "no timing rows");
        assert!(r.check_golden(&golden).is_ok());
    }

    #[test]
    fn golden_drift_is_reported() {
        let r = report();
        let golden = "# comment\nE1/baskets=100 rules=41\nE1/baskets=200 rules=99\n\
                      E5/min-parent rules=7 candidates=120\nE9/gone rules=5\n";
        let problems = r.check_golden(golden).unwrap_err();
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("drift"), "{problems:?}");
        assert!(problems[0].contains("expected 41, measured 42"));
        assert!(problems[1].contains("missing"), "{problems:?}");
    }

    #[test]
    fn candidate_drift_is_reported_and_the_field_is_optional() {
        let r = report();
        let golden = |candidates: &str| {
            format!("E1/baskets=100 rules=42\nE1/baskets=200 rules=99\nE5/min-parent rules=7{candidates}\n")
        };
        assert!(r.check_golden(&golden(" candidates=120")).is_ok());
        for drifted in [" candidates=119", ""] {
            let problems = r.check_golden(&golden(drifted)).unwrap_err();
            assert_eq!(problems.len(), 1, "{problems:?}");
            assert!(
                problems[0].contains("candidate-count drift"),
                "{problems:?}"
            );
        }
    }

    #[test]
    fn unparseable_golden_is_an_error() {
        assert!(report().check_golden("E1/baskets=100\n").is_err());
        assert!(report().check_golden("E1/x rules=abc\n").is_err());
        assert!(report()
            .check_golden("E1/x rules=1 candidates=z\n")
            .is_err());
    }
}
