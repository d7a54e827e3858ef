//! The benchmark ledger (`bench/ledger/`, see its README) stays whole:
//! an entry without the parent run measured beside it cannot be read —
//! timings compare only between files measured together — and an entry
//! that skipped a workload hides exactly the regression it should show.

use std::fs;
use std::path::PathBuf;

/// The workloads `BENCHMARK.json` declares.
const WORKLOADS: [&str; 5] = [
    "basket_cold",
    "basket_rule_explosion",
    "retail_temporal",
    "refine_session",
    "durable_dml",
];

#[test]
fn every_ledger_entry_has_its_parent_and_names_all_five_workloads() {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let benchmark = fs::read_to_string(repo.join("BENCHMARK.json")).unwrap();
    for workload in WORKLOADS {
        assert!(
            benchmark.contains(&format!("\"name\": \"{workload}\"")),
            "BENCHMARK.json no longer declares '{workload}': update WORKLOADS"
        );
    }

    let ledger = repo.join("bench/ledger");
    let mut entries = 0;
    for file in fs::read_dir(&ledger).unwrap() {
        let name = file.unwrap().file_name().into_string().unwrap();
        let Some(pr) = name.strip_suffix(".json") else {
            continue;
        };
        let number = pr.strip_suffix("-parent").unwrap_or(pr).strip_prefix("PR");
        assert!(
            number.is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit())),
            "{name}: ledger entries are PR<n>.json and PR<n>-parent.json"
        );
        if !pr.ends_with("-parent") {
            entries += 1;
            let parent = ledger.join(format!("{pr}-parent.json"));
            assert!(parent.is_file(), "{name} has no {pr}-parent.json beside it");
        }
        let text = fs::read_to_string(ledger.join(&name)).unwrap();
        for workload in WORKLOADS {
            let run = format!("\"{workload}\":{{\"end_to_end\":");
            assert!(text.contains(&run), "{name} has no '{workload}' run");
        }
    }
    assert!(entries > 0, "no entries under {}", ledger.display());
}
