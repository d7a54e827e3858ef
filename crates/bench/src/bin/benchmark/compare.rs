//! `--compare <a.json> <b.json>`: judge two result files (each a set of
//! runs written by the all-workloads mode) against the benchmark's own
//! bounds. Also the tool for "two sets of runs of the same code agree".

use std::fmt::Write as _;

use crate::catalog::{self, Better, MetricDef};
use crate::json::Json;
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread is wider than the bound, so a move of the
    /// median inside it proves nothing either way.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge set `b` against baseline `a` for one metric with bound `bound`.
///
/// `b` is worse (better) when its median is worse (better) than `a`'s by
/// more than `bound` of `a`'s median. Where either set's interquartile
/// spread exceeds the bound, the verdict is `Unresolved` unless every run
/// of one set beats every run of the other. A bound of 0 marks an exact
/// count: any difference of medians is a change.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    // Signed so that positive means `b` is worse.
    let worse_by = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    let scale = ma.abs();
    let moved = if scale == 0.0 {
        worse_by.abs() > 0.0
    } else {
        worse_by.abs() / scale > bound
    };
    let noisy = stats::spread(a).max(stats::spread(b)) > bound;
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let separated = stats::min(a) > max(b) || stats::min(b) > max(a);
    match (moved, noisy && !separated) {
        (_, true) => Verdict::Unresolved,
        (false, false) => Verdict::Same,
        (true, false) if worse_by > 0.0 => Verdict::Worse,
        (true, false) => Verdict::Better,
    }
}

fn values(node: Option<&Json>) -> Vec<f64> {
    match node {
        Some(Json::Arr(items)) => items.iter().filter_map(Json::as_f64).collect(),
        Some(Json::Num(n)) => vec![*n],
        _ => Vec::new(),
    }
}

fn summary(v: &[f64]) -> String {
    let [q1, _, q3] = stats::quartiles(v);
    format!(
        "{:.4} [{:.4}, {:.4}] n={}",
        stats::median(v),
        q1,
        q3,
        v.len()
    )
}

fn judged_row(report: &mut String, def: &MetricDef, a: &[f64], b: &[f64]) -> Option<Verdict> {
    let bound = def.bound?;
    let verdict = judge(a, b, def.better, bound);
    writeln!(
        report,
        "| {} | {} | {} | {} | {} | {} |",
        def.name,
        def.unit,
        summary(a),
        summary(b),
        bound,
        verdict.as_str()
    )
    .expect("string write");
    Some(verdict)
}

/// Render the comparison; the second value is how many metrics got worse.
pub fn compare(a: &Json, b: &Json) -> (String, usize) {
    let mut report = String::new();
    let mut worse = 0;
    for workload in catalog::WORKLOADS {
        let side = |doc: &'_ Json, section: &str| -> Json {
            doc.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get(section))
                .cloned()
                .unwrap_or(Json::obj())
        };
        let (ea, eb) = (side(a, "end_to_end"), side(b, "end_to_end"));
        if ea.members().is_empty() && eb.members().is_empty() {
            continue;
        }
        writeln!(report, "\n## {workload}\n").expect("string write");
        writeln!(
            report,
            "| end-to-end metric | unit | a: median [q1, q3] n | b: median [q1, q3] n | bound | verdict |\n|---|---|---|---|---|---|"
        )
        .expect("string write");
        for def in catalog::END_TO_END.iter().chain(catalog::PER_LAYER) {
            let (va, vb) = (values(ea.get(def.name)), values(eb.get(def.name)));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            if judged_row(&mut report, def, &va, &vb) == Some(Verdict::Worse) {
                worse += 1;
            }
        }
        let (la, lb) = (side(a, "per_layer"), side(b, "per_layer"));
        if la.members().is_empty() || lb.members().is_empty() {
            continue;
        }
        writeln!(
            report,
            "\n| per-layer metric | unit | a | b | delta |\n|---|---|---|---|---|"
        )
        .expect("string write");
        for def in catalog::PER_LAYER {
            let (va, vb) = (values(la.get(def.name)), values(lb.get(def.name)));
            let (Some(&x), Some(&y)) = (va.first(), vb.first()) else {
                continue;
            };
            if x == 0.0 && y == 0.0 {
                continue;
            }
            let delta = if x == y {
                "=".to_string()
            } else if x == 0.0 {
                "new".to_string()
            } else {
                format!("{:+.1}%", 100.0 * (y - x) / x.abs())
            };
            writeln!(
                report,
                "| {} | {} | {x} | {y} | {delta} |",
                def.name, def.unit
            )
            .expect("string write");
        }
    }
    (report, worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let tight_a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let tight_same = [101.0, 102.0, 100.0, 101.5, 100.5];
        let tight_slow = [120.0, 121.0, 119.0, 120.5, 119.5];
        let tight_fast = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(
            judge(&tight_a, &tight_same, Better::Lower, 0.1),
            Verdict::Same
        );
        assert_eq!(
            judge(&tight_a, &tight_slow, Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            judge(&tight_a, &tight_fast, Better::Lower, 0.1),
            Verdict::Better
        );
        // Direction flips for throughput-like metrics.
        assert_eq!(
            judge(&tight_a, &tight_slow, Better::Higher, 0.1),
            Verdict::Better
        );
        assert_eq!(
            judge(&tight_a, &tight_fast, Better::Higher, 0.1),
            Verdict::Worse
        );

        // Overlapping noisy sets resolve nothing, whatever the medians do.
        let noisy_a = [100.0, 140.0, 80.0, 120.0, 60.0];
        let noisy_b = [115.0, 150.0, 85.0, 130.0, 70.0];
        assert_eq!(
            judge(&noisy_a, &noisy_b, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy_a, &noisy_a, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // ...unless every run of one side beats every run of the other.
        let far = [300.0, 340.0, 280.0, 320.0, 260.0];
        assert_eq!(judge(&noisy_a, &far, Better::Lower, 0.1), Verdict::Worse);

        // Exact counts: bound 0, equality or nothing.
        assert_eq!(
            judge(&[14.5, 14.5], &[14.5, 14.5], Better::Lower, 0.0),
            Verdict::Same
        );
        assert_eq!(
            judge(&[14.5, 14.5], &[14.6, 14.6], Better::Lower, 0.0),
            Verdict::Worse
        );
        assert_eq!(judge(&[0.0], &[0.0], Better::Lower, 0.0), Verdict::Same);
        // Single runs have no spread and are judged on the medians alone.
        assert_eq!(judge(&[100.0], &[104.0], Better::Lower, 0.1), Verdict::Same);
    }

    #[test]
    fn report_lists_judged_and_layer_rows() {
        let doc = |op: &str, scanned: f64| {
            Json::parse(&format!(
                "{{\"workloads\":{{\"basket_cold\":{{\"end_to_end\":{{\"op_ms\":{op},\"write_amp\":[2,2]}},\
                 \"per_layer\":{{\"exec.rows_scanned\":{scanned},\"lattice.sets\":0}}}}}}}}"
            ))
            .unwrap()
        };
        let (report, worse) = compare(&doc("[100,101,99]", 5.0), &doc("[130,131,129]", 6.0));
        assert_eq!(worse, 1);
        assert!(report.contains("## basket_cold"));
        assert!(report.contains("| op_ms | ms | 100.0000 [99.0000, 101.0000] n=3 |"));
        assert!(report.contains("| worse |"));
        assert!(report.contains("| write_amp | bytes/byte |"));
        assert!(report.contains("| exec.rows_scanned | count | 5 | 6 | +20.0% |"));
        assert!(!report.contains("lattice.sets"));
        assert!(!report.contains("## durable_dml"));
    }
}
